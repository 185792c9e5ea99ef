package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"crashsim/internal/core"
	"crashsim/internal/engine"
	"crashsim/internal/gen"
	"crashsim/internal/graph"
	"crashsim/internal/load"
	"crashsim/internal/obs"
	"crashsim/internal/reads"
	"crashsim/internal/rng"
	"crashsim/internal/server"
	"crashsim/internal/store"
)

// servingSpec fixes one HTTP workload against the in-process server.
type servingSpec struct {
	algo      string  // engine backend: "crashsim" or "reads"
	poolSize  int     // sources: the poolSize top-degree giant-component nodes; 0 = all of it
	zipfS     float64 // rank-Zipf skew over the pool; 0 = uniform
	rate      float64 // open-loop arrivals per second; 0 = closed loop, one caller
	noBatch   bool    // leave batches out; single and top-k keep their DefaultMix ratio
	warm      bool    // one untimed pass fills the result cache first
	snapshot  bool    // set up from a READS snapshot instead of the edge list
	setupReps int     // set-ups per run; setup_s is their median
}

// servingInputs are a serving workload's generated files and the
// generator-side facts the checks need.
type servingInputs struct {
	edgePath string
	snapPath string
	g        *graph.Graph // the generated graph, never handed to the server
	pool     []graph.NodeID
}

// mix is the workload's request mix: load.DefaultMix, without batches
// if the workload leaves them out.
func (s *servingSpec) mix() load.Mix {
	m := load.DefaultMix()
	if s.noBatch {
		m.Batch = 0
	}
	return m
}

func (s *servingSpec) engineConfig() engine.Config {
	return engine.Config{Iterations: servingIters, Seed: estimatorSeed, Metrics: obs.NewRegistry()}
}

// prepServing generates as-caida from the seed, writes its edge list
// and, for the snapshot workload, builds and writes a READS snapshot.
func prepServing(e *env, s *servingSpec) (*servingInputs, error) {
	p, err := gen.ProfileByName(servingProfile)
	if err != nil {
		return nil, err
	}
	g, err := p.Static(e.seed)
	if err != nil {
		return nil, err
	}
	in := &servingInputs{edgePath: filepath.Join(e.dir, "graph.txt"), g: g}
	if err := writeFile(in.edgePath, func(w io.Writer) error { return graph.WriteEdgeList(w, g) }); err != nil {
		return nil, err
	}
	in.pool = byDegree(g, graph.GiantComponent(g))
	if s.poolSize > 0 {
		in.pool = in.pool[:min(s.poolSize, len(in.pool))]
	}
	if s.snapshot {
		ix, err := engine.BuildReadsIndex(context.Background(), g, s.engineConfig())
		if err != nil {
			return nil, err
		}
		payload := ix.Export()
		in.snapPath = filepath.Join(e.dir, "graph.reads.snap")
		snap := &store.Snapshot{
			Graph: g,
			Meta:  store.Meta{Dataset: fmt.Sprintf("%s seed %d", servingProfile, e.seed), Tool: "perfbench"},
			Reads: &payload,
		}
		if err := store.Write(in.snapPath, snap); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// byDegree sorts nodes by descending total degree, ties by id.
func byDegree(g *graph.Graph, nodes []graph.NodeID) []graph.NodeID {
	deg := func(v graph.NodeID) int { return g.InDegree(v) + g.OutDegree(v) }
	sort.SliceStable(nodes, func(i, j int) bool { return deg(nodes[i]) > deg(nodes[j]) })
	return nodes
}

// sourceStrata is how many degree strata a uniform source draw balances.
const sourceStrata = 16

// uniformSources draws n sources uniformly from pool, which must be
// sorted by degree, stratified: each run of sourceStrata draws takes
// one node from each of sourceStrata equal-size degree bands, in a
// shuffled order. Every node stays equally likely, but each run sees
// the same share of hubs, whose queries cost most.
func uniformSources(pool []graph.NodeID, n int, seed uint64) []graph.NodeID {
	r := rng.New(seed)
	order := make([]int, sourceStrata)
	for i := range order {
		order[i] = i
	}
	out := make([]graph.NodeID, n)
	for i := range out {
		if i%sourceStrata == 0 {
			r.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		}
		s := order[i%sourceStrata]
		lo, hi := s*len(pool)/sourceStrata, (s+1)*len(pool)/sourceStrata
		out[i] = pool[lo+r.IntN(max(1, hi-lo))]
	}
	return out
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := write(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// request is one entry of a workload's request stream.
type request struct {
	kind    load.Kind
	sources []graph.NodeID // one source, or batchSize for a batch
	at      time.Duration  // scheduled send, from the window start (open loop)
}

// mixBlock is the number of consecutive requests over which the stream
// realizes load.DefaultMix exactly; only the order within a block is
// drawn, so no run's mix drifts from the stated one.
const mixBlock = 20

// makeStream draws n requests: kinds in mix proportions,
// shuffled within each block of mixBlock requests; sources rank-Zipf
// over pool, or stratified uniform (see uniformSources) when zipfS is
// 0; and for an open loop Poisson arrival offsets
// at rate per second.
func makeStream(name string, seed uint64, n int, pool []graph.NodeID, mix load.Mix, zipfS, rate float64) ([]request, error) {
	r := rng.New(rng.SeedString(fmt.Sprintf("perfbench/%s/stream/%d", name, seed)))
	total := mix.Single + mix.TopK + mix.Batch
	nSingle := int(math.Round(mixBlock * mix.Single / total))
	nTopK := int(math.Round(mixBlock * mix.TopK / total))
	block := make([]load.Kind, mixBlock)
	for i := range block {
		switch {
		case i < nSingle:
			block[i] = load.KindSingle
		case i < nSingle+nTopK:
			block[i] = load.KindTopK
		default:
			block[i] = load.KindBatch
		}
	}
	reqs := make([]request, n)
	nsrc := 0
	elapsed := 0.0
	for i := range reqs {
		if i%mixBlock == 0 {
			r.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		reqs[i].kind = block[i%mixBlock]
		nsrc++
		if reqs[i].kind == load.KindBatch {
			nsrc += batchSize - 1
		}
		if rate > 0 {
			elapsed += -math.Log(1-r.Float64()) / rate
			reqs[i].at = time.Duration(elapsed * float64(time.Second))
		}
	}
	srcSeed := rng.SeedString(fmt.Sprintf("perfbench/%s/sources/%d", name, seed))
	srcs := uniformSources(pool, nsrc, srcSeed)
	if zipfS > 0 {
		var err error
		if srcs, err = gen.ZipfSources(pool, nsrc, zipfS, srcSeed); err != nil {
			return nil, err
		}
	}
	for i := range reqs {
		w := 1
		if reqs[i].kind == load.KindBatch {
			w = batchSize
		}
		reqs[i].sources, srcs = srcs[:w:w], srcs[w:]
	}
	return reqs, nil
}

// openLoopStream is the workload's open-loop stream for the window: a
// fixed rate*window arrivals at Poisson times. Given their count, the
// arrival times of a Poisson process in a window are exponential gaps
// scaled to end at the window's end, so the stream draws n+1 gaps and
// rescales them; every run then offers the same load and the same
// sample count.
func openLoopStream(name string, seed uint64, window time.Duration, pool []graph.NodeID, mix load.Mix, zipfS, rate float64) ([]request, error) {
	n := int(math.Round(rate * window.Seconds()))
	reqs, err := makeStream(name, seed, n+1, pool, mix, zipfS, rate)
	if err != nil {
		return nil, err
	}
	scale := float64(window) / float64(reqs[n].at)
	for i := range reqs {
		reqs[i].at = time.Duration(float64(reqs[i].at) * scale)
	}
	return reqs[:n], nil
}

// live is one set-up server behind a loopback listener.
type live struct {
	url      string
	hs       *http.Server
	served   chan error
	reg      *obs.Registry
	ix       *reads.Index // the index loaded from the snapshot, if any
	graphDur time.Duration
	loadDur  time.Duration // store.Load
	impDur   time.Duration // (*store.Snapshot).ImportReads
	newDur   time.Duration // server.New
}

// startServer opens the workload's input files, builds the server and
// starts it behind a loopback listener: the set-up setup_s times.
func startServer(s *servingSpec, in *servingInputs, wrap func(http.Handler) http.Handler, algo string, cache bool) (*live, error) {
	l := &live{reg: obs.NewRegistry()}
	cfg := server.Config{
		Algo:        algo,
		Params:      core.Params{Iterations: servingIters, Seed: estimatorSeed},
		DefaultK:    queryK,
		MaxInFlight: maxInFlight,
		Metrics:     l.reg,
	}
	if cache {
		cfg.CacheBytes = cacheBytes
	}
	start := time.Now()
	if s.snapshot {
		snap, err := store.Load(in.snapPath)
		if err != nil {
			return nil, err
		}
		l.loadDur = time.Since(start)
		if l.ix, err = snap.ImportReads(snap.Graph); err != nil {
			return nil, err
		}
		l.impDur = time.Since(start) - l.loadDur
		cfg.Graph, cfg.ReadsIndex = snap.Graph, l.ix
	} else {
		f, err := os.Open(in.edgePath)
		if err != nil {
			return nil, err
		}
		cfg.Graph, err = graph.ReadEdgeList(f)
		f.Close()
		if err != nil {
			return nil, err
		}
		l.graphDur = time.Since(start)
	}
	newStart := time.Now()
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	l.newDur = time.Since(newStart)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var h http.Handler = srv
	if wrap != nil {
		h = wrap(srv)
	}
	l.hs = &http.Server{Handler: h}
	l.served = make(chan error, 1)
	go func() { l.served <- l.hs.Serve(ln) }()
	l.url = "http://" + ln.Addr().String()
	return l, nil
}

// close stops the server and waits for its serve loop to return.
func (l *live) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := l.hs.Shutdown(ctx); err != nil {
		l.hs.Close()
	}
	<-l.served
}

// client sends the workload's requests with at most nproc connections.
type client struct {
	http *http.Client
	base string
}

func newClient(base string, nproc int) *client {
	return &client{base: base, http: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     nproc,
			MaxIdleConnsPerHost: nproc,
			MaxIdleConns:        nproc,
			DisableCompression:  true,
		},
	}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// reqHeader carries a request's stream index, so the traced run can
// match server-side spans to client-side samples.
const reqHeader = "X-Perfbench-Req"

// sample is what the client saw of one request.
type sample struct {
	// sched is the scheduled send and free the moment a connection slot
	// was free for it (open loop only); sent and done bracket the call.
	sched, free, sent, done time.Time
	status                  int
	err                     error
	body                    []byte
}

// latency is measured from the scheduled send in an open loop and from
// the actual send in a closed one.
func (s *sample) latency() time.Duration {
	if s.sched.IsZero() {
		return s.done.Sub(s.sent)
	}
	return s.done.Sub(s.sched)
}

func (c *client) send(idx int, r request) sample {
	var (
		req *http.Request
		err error
	)
	switch r.kind {
	case load.KindSingle:
		req, err = http.NewRequest(http.MethodGet, fmt.Sprintf("%s/singlesource?u=%d&k=%d", c.base, r.sources[0], queryK), nil)
	case load.KindTopK:
		req, err = http.NewRequest(http.MethodGet, fmt.Sprintf("%s/topk?u=%d&k=%d", c.base, r.sources[0], queryK), nil)
	default:
		body, merr := json.Marshal(struct {
			Sources []graph.NodeID `json:"sources"`
			K       int            `json:"k"`
		}{r.sources, queryK})
		if merr != nil {
			return sample{sent: time.Now(), done: time.Now(), err: merr}
		}
		req, err = http.NewRequest(http.MethodPost, c.base+"/batch/singlesource", bytes.NewReader(body))
		if req != nil {
			req.Header.Set("Content-Type", "application/json")
		}
	}
	s := sample{sent: time.Now()}
	if err != nil {
		s.err, s.done = err, time.Now()
		return s
	}
	req.Header.Set(reqHeader, strconv.Itoa(idx))
	resp, err := c.http.Do(req)
	if err != nil {
		s.err, s.done = err, time.Now()
		return s
	}
	s.body, s.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	s.status, s.done = resp.StatusCode, time.Now()
	return s
}

// openLoop sends reqs at their scheduled offsets from start with at most
// workers in flight. A request that waits for a free worker keeps its
// scheduled time, so the wait counts in its latency.
func openLoop(start time.Time, reqs []request, workers int, fire func(int) sample) []sample {
	out := make([]sample, len(reqs))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := range reqs {
		sched := start.Add(reqs[i].at)
		if d := time.Until(sched); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		free := time.Now()
		wg.Add(1)
		go func(i int, sched, free time.Time) {
			defer wg.Done()
			s := fire(i)
			<-sem
			s.sched, s.free = sched, free
			out[i] = s
		}(i, sched, free)
	}
	wg.Wait()
	return out
}

// closedLoop runs callers that each send the next request of the stream
// when their previous one returns, until the deadline.
func closedLoop(deadline time.Time, n, callers int, fire func(int) sample) []sample {
	out := make([]sample, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				out[i] = fire(i)
			}
		}()
	}
	wg.Wait()
	return out[:min(int(next.Load()), n)]
}

// phase is one timed pass of a serving workload over one server.
type phase struct {
	reqs    []request
	samples []sample
	start   time.Time
	memPre  runtime.MemStats
	memPost runtime.MemStats
}

// warm sends every pool source once per cache key kind, a single-source
// entry (batches reuse it) and a top-k entry, so the window starts with
// the working set cached.
func warm(e *env, l *live, in *servingInputs) error {
	c := newClient(l.url, e.nproc)
	defer c.close()
	var reqs []request
	for _, u := range in.pool {
		reqs = append(reqs, request{kind: load.KindSingle, sources: []graph.NodeID{u}},
			request{kind: load.KindTopK, sources: []graph.NodeID{u}})
	}
	for _, smp := range closedLoop(time.Now().Add(time.Hour), len(reqs), e.nproc, func(i int) sample { return c.send(-1, reqs[i]) }) {
		if smp.err != nil || smp.status != http.StatusOK {
			return fmt.Errorf("warm-up request failed: status %d, %v", smp.status, smp.err)
		}
	}
	return nil
}

// drive sends the stream for the window: open loop at the workload's
// rate, or closed loop with one caller, which leaves the other cores to
// the runtime (README.md, design choices).
func drive(e *env, s *servingSpec, l *live, reqs []request, window time.Duration) (*phase, error) {
	c := newClient(l.url, e.nproc)
	defer c.close()
	p := &phase{reqs: reqs}
	fire := func(i int) sample { return c.send(i, reqs[i]) }
	runtime.GC()
	p.memPre = memStats()
	p.start = time.Now()
	if s.rate > 0 {
		p.samples = openLoop(p.start, reqs, e.nproc, fire)
	} else {
		p.samples = closedLoop(p.start.Add(window), len(reqs), 1, fire)
	}
	p.memPost = memStats()
	if len(p.samples) == 0 {
		return nil, fmt.Errorf("no request was sent in the window")
	}
	return p, nil
}

// warmAndDrive warms the server if the workload asks for it, then
// drives the window.
func warmAndDrive(e *env, s *servingSpec, l *live, reqs []request, in *servingInputs, window time.Duration) (*phase, error) {
	if s.warm {
		start := time.Now()
		if err := warm(e, l, in); err != nil {
			return nil, err
		}
		e.logf("cache warmed in %v", time.Since(start).Round(time.Millisecond))
	}
	return drive(e, s, l, reqs, window)
}

// wall is the phase's timed wall time: window start to last reply.
func (p *phase) wall() time.Duration {
	var last time.Time
	for i := range p.samples {
		if p.samples[i].done.After(last) {
			last = p.samples[i].done
		}
	}
	return last.Sub(p.start)
}

// lateness is, per open-loop request, the generator's own delay: from
// when the request was due and a connection slot was free to its send.
func (p *phase) lateness() []time.Duration {
	var late []time.Duration
	for i := range p.samples {
		if smp := &p.samples[i]; !smp.sched.IsZero() {
			late = append(late, smp.sent.Sub(smp.free))
		}
	}
	return late
}

// queued is, per open-loop request, the wait for a free connection slot
// after it was due: queueing behind the requests in flight.
func (p *phase) queued() []time.Duration {
	var q []time.Duration
	for i := range p.samples {
		if smp := &p.samples[i]; !smp.sched.IsZero() {
			q = append(q, max(0, smp.free.Sub(smp.sched)))
		}
	}
	return q
}

// service is each request's time from its actual send to its reply.
func (p *phase) service() []time.Duration {
	out := make([]time.Duration, len(p.samples))
	for i := range p.samples {
		out[i] = p.samples[i].done.Sub(p.samples[i].sent)
	}
	return out
}

// judge classifies every sample, validating each 2xx body.
func (p *phase) judge(n int, limit time.Duration) (tally, []time.Duration, int, []error) {
	var (
		t      tally
		lat    []time.Duration
		sloOK  int
		wrongs []error
	)
	for i := range p.samples {
		smp := &p.samples[i]
		var checkErr error
		if smp.err == nil && smp.status >= 200 && smp.status <= 299 {
			checkErr = validateBody(smp.body, p.reqs[i], queryK, n)
		}
		k := classify(smp.status, smp.err, checkErr)
		t.add(k)
		if k == outWrong && len(wrongs) < 3 {
			wrongs = append(wrongs, fmt.Errorf("request %d: %w", i, checkErr))
		}
		if k != outOK {
			continue
		}
		lat = append(lat, smp.latency())
		if smp.latency() <= limit {
			sloOK++
		}
	}
	return t, lat, sloOK, wrongs
}

// runServing runs one HTTP workload: -trace 0 measures it end to end,
// -trace 1 runs an untraced then a traced half window for the layers.
func runServing(e *env, w *workload) (*outcome, error) {
	s := w.serving
	prepStart := time.Now()
	in, err := prepServing(e, s)
	if err != nil {
		return nil, fmt.Errorf("preparing inputs: %w", err)
	}
	e.logf("inputs prepared in %v", time.Since(prepStart).Round(time.Millisecond))
	n := in.g.NumNodes()
	window := e.window
	if e.trace {
		window /= 2
	}
	var reqs []request
	if s.rate > 0 {
		reqs, err = openLoopStream(w.name, e.seed, window, in.pool, s.mix(), s.zipfS, s.rate)
	} else {
		reqs, err = makeStream(w.name, e.seed, 1000*int(math.Ceil(window.Seconds())), in.pool, s.mix(), s.zipfS, 0)
	}
	if err != nil {
		return nil, err
	}
	if len(reqs) == 0 {
		return nil, errors.New("the window holds no request")
	}
	if e.trace {
		return traceServing(e, w, in, reqs, window)
	}

	o := &outcome{}
	var l *live
	for rep := 0; rep < s.setupReps; rep++ {
		if l != nil {
			l.close()
		}
		runtime.GC()
		start := time.Now()
		if l, err = startServer(s, in, nil, s.algo, true); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		o.setups = append(o.setups, time.Since(start))
	}
	defer l.close()
	runtime.GC()
	o.heapBytes = memStats().HeapAlloc
	p, err := warmAndDrive(e, s, l, reqs, in, window)
	if err != nil {
		return nil, err
	}
	var wrongs []error
	o.tally, o.latencies, o.sloOK, wrongs = p.judge(n, w.limit)
	checkStart := time.Now()
	o.checkErrs = append(wrongs, deepCheck(s, in, l, p)...)
	e.logf("outputs checked in %v", time.Since(checkStart).Round(time.Millisecond))
	o.wall = p.wall()
	o.allocated = p.memPost.TotalAlloc - p.memPre.TotalAlloc
	e.logf("generator lateness p99 = %.3f ms, slot wait p99 = %.3f ms, service time p50 = %.3f ms",
		quantileMs(p.lateness(), 0.99), quantileMs(p.queued(), 0.99), quantileMs(p.service(), 0.5))
	return o, nil
}
