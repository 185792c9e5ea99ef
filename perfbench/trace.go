package main

import (
	"context"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"crashsim/internal/cache"
	"crashsim/internal/core"
	"crashsim/internal/engine"
	"crashsim/internal/graph"
	"crashsim/internal/metrics"
	"crashsim/internal/obs"
)

// The traced run records spans from this package only, around the calls
// into each layer's public functions:
//
//	middleware          around (*server.Server).ServeHTTP   server.handler_ms
//	engineSpans         around the engine.Cached estimator  engine.*_ms
//	coreSpans/readSpans the inner estimator engine.Cached   core.*_ms, reads.query_ms
//	                    calls on a miss
//	rank replay         metrics.TopK over each served map   metrics.topk_ms
//
// The traced server runs a benchmark-registered backend that stacks
// engineSpans(engine.Cached(innerSpans)) with the same cache the server
// would build, so the server's own cache is off in the traced run.

// tracer collects one traced phase's spans.
type tracer struct {
	origin time.Time
	cache  *cache.Cache

	inflight, inflightMax atomic.Int64

	mu     sync.Mutex
	recs   map[int]*reqTrace
	stages map[string][]time.Duration
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), recs: map[int]*reqTrace{}, stages: map[string][]time.Duration{}, counts: map[string]float64{}}
}

// reset drops what was recorded so far (the warm-up pass).
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.recs = map[int]*reqTrace{}
	t.stages = map[string][]time.Duration{}
	t.counts = map[string]float64{}
	t.inflightMax.Store(0)
}

func (t *tracer) now() time.Duration { return time.Since(t.origin) }

func (t *tracer) stage(name string, d time.Duration) {
	t.mu.Lock()
	t.stages[name] = append(t.stages[name], d)
	t.mu.Unlock()
}

func (t *tracer) count(name string, v float64) {
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// reqTrace is one request's spans. Only the request's own goroutine
// writes it until the middleware hands it to the tracer.
type reqTrace struct {
	endpoint string
	handler  interval
	engine   []interval
	hit      []bool
	inner    []interval
	rank     time.Duration // replayed rank time, outside the handler span
	keep     []kept
}

// kept is a served score map the middleware ranks again after the
// handler span closes, to time the handler's rank.
type kept struct {
	u      graph.NodeID
	scores core.Scores
}

type recKey struct{}

func recFrom(ctx context.Context) *reqTrace {
	rec, _ := ctx.Value(recKey{}).(*reqTrace)
	return rec
}

// middleware spans (*server.Server).ServeHTTP and files the request's
// trace under its stream index.
func (t *tracer) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &reqTrace{endpoint: endpointOf(r.URL.Path)}
		cur := t.inflight.Add(1)
		for {
			m := t.inflightMax.Load()
			if cur <= m || t.inflightMax.CompareAndSwap(m, cur) {
				break
			}
		}
		start := t.now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), recKey{}, rec)))
		rec.handler = interval{start, t.now()}
		t.inflight.Add(-1)
		for _, k := range rec.keep {
			s := time.Now()
			metrics.TopK(k.scores, k.u, queryK)
			d := time.Since(s)
			rec.rank += d
			t.stage("metrics.topk", d)
		}
		rec.keep = nil
		idx, err := strconv.Atoi(r.Header.Get(reqHeader))
		if err != nil {
			idx = -1
		}
		t.mu.Lock()
		t.recs[idx] = rec
		t.mu.Unlock()
	})
}

// handlerTimer is the untraced half's only span: ServeHTTP's duration
// per request index, the baseline for the tracing overhead.
type handlerTimer struct {
	mu  sync.Mutex
	dur map[int]time.Duration
}

func (ht *handlerTimer) middleware(h http.Handler) http.Handler {
	ht.dur = map[int]time.Duration{}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(start)
		idx, err := strconv.Atoi(r.Header.Get(reqHeader))
		if err != nil || idx < 0 {
			return // warm-up
		}
		ht.mu.Lock()
		ht.dur[idx] = d
		ht.mu.Unlock()
	})
}

func endpointOf(path string) string {
	switch {
	case strings.HasPrefix(path, "/singlesource"):
		return "single"
	case strings.HasPrefix(path, "/topk"):
		return "topk"
	case strings.HasPrefix(path, "/batch"):
		return "batch"
	}
	return "other"
}

// engineSpans times each call into the cached estimator.
type engineSpans struct {
	inner engine.Estimator
	t     *tracer
}

func (e *engineSpans) Name() string { return e.inner.Name() }

func (e *engineSpans) span(ctx context.Context, start time.Duration, innerBefore int) {
	rec := recFrom(ctx)
	if rec == nil {
		return
	}
	rec.engine = append(rec.engine, interval{start, e.t.now()})
	rec.hit = append(rec.hit, len(rec.inner) == innerBefore)
}

func innerCount(ctx context.Context) int {
	if rec := recFrom(ctx); rec != nil {
		return len(rec.inner)
	}
	return 0
}

func (e *engineSpans) SingleSource(ctx context.Context, u graph.NodeID, omega []graph.NodeID) (core.Scores, error) {
	start, before := e.t.now(), innerCount(ctx)
	s, err := e.inner.SingleSource(ctx, u, omega)
	e.span(ctx, start, before)
	if rec := recFrom(ctx); rec != nil && err == nil {
		rec.keep = append(rec.keep, kept{u, s})
	}
	return s, err
}

// engineSpansAll keeps the top-k and batch entry points of an estimator
// that has them, so the server takes the same paths as without tracing.
type engineSpansAll struct{ *engineSpans }

func (e engineSpansAll) TopK(ctx context.Context, u graph.NodeID, k int) ([]core.TopKResult, error) {
	start, before := e.t.now(), innerCount(ctx)
	r, err := engine.TopK(ctx, e.inner, u, k)
	e.span(ctx, start, before)
	return r, err
}

func (e engineSpansAll) MultiSource(ctx context.Context, sources []graph.NodeID) ([]core.Scores, error) {
	start, before := e.t.now(), innerCount(ctx)
	out, err := engine.MultiSource(ctx, e.inner, sources)
	e.span(ctx, start, before)
	if rec := recFrom(ctx); rec != nil && err == nil {
		for i, s := range out {
			rec.keep = append(rec.keep, kept{sources[i], s})
		}
	}
	return out, err
}

// innerSpan records one call of the inner estimator into the request's
// trace, so the engine span around it knows it missed.
func (t *tracer) innerSpan(ctx context.Context, start time.Duration) {
	if rec := recFrom(ctx); rec != nil {
		rec.inner = append(rec.inner, interval{start, t.now()})
	}
}

// coreSpans answers crashsim queries through core's public stages, each
// timed: BuildTree (revReach), Freeze, SingleSourceWithTree and TopKCtx.
// Batches go to MultiSource, timed only by the engine span: no workload
// sends a batch that misses the cache. Its scores are bit-identical to
// the crashsim backend's;
// it leaves out the pair query, which no workload sends.
// SingleSourceWithTree compiles the frozen tree itself, so the separate
// Freeze call repeats that work to time it, and core.estimate is the
// estimate span minus the freeze span.
type coreSpans struct {
	g *graph.Graph
	p core.Params
	t *tracer
}

func (c *coreSpans) Name() string { return "crashsim" }

func (c *coreSpans) SingleSource(ctx context.Context, u graph.NodeID, omega []graph.NodeID) (core.Scores, error) {
	defer c.t.innerSpan(ctx, c.t.now())
	t0 := time.Now()
	tree, err := core.BuildTree(c.g, u, c.p)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	tree.Freeze(c.g.NumNodes())
	t2 := time.Now()
	s, err := core.SingleSourceWithTree(c.g, u, omega, c.p, tree)
	t3 := time.Now()
	c.t.stage("core.revreach", t1.Sub(t0))
	c.t.stage("core.freeze", t2.Sub(t1))
	c.t.stage("core.estimate", t3.Sub(t2)-t2.Sub(t1))
	c.t.count("core.tree_support", float64(tree.Support()))
	c.t.count("core.source_queries", 1)
	return s, err
}

func (c *coreSpans) TopK(ctx context.Context, u graph.NodeID, k int) ([]core.TopKResult, error) {
	defer c.t.innerSpan(ctx, c.t.now())
	s := time.Now()
	r, err := core.TopKCtx(ctx, c.g, u, k, c.p)
	c.t.stage("core.topk", time.Since(s))
	c.t.count("core.source_queries", 1)
	return r, err
}

func (c *coreSpans) MultiSource(ctx context.Context, sources []graph.NodeID) ([]core.Scores, error) {
	defer c.t.innerSpan(ctx, c.t.now())
	out, err := core.MultiSource(ctx, c.g, sources, nil, c.p)
	c.t.count("core.source_queries", float64(len(sources)))
	return out, err
}

// readSpans times the READS backend's queries.
type readSpans struct {
	inner engine.Estimator
	t     *tracer
}

func (r *readSpans) Name() string { return r.inner.Name() }

func (r *readSpans) SingleSource(ctx context.Context, u graph.NodeID, omega []graph.NodeID) (core.Scores, error) {
	defer r.t.innerSpan(ctx, r.t.now())
	s := time.Now()
	out, err := r.inner.SingleSource(ctx, u, omega)
	r.t.stage("reads.query", time.Since(s))
	return out, err
}

// tracedBackend is the engine backend name the traced server runs.
const tracedBackend = "perfbench-traced"

// register makes tracedBackend build the traced stack for algo.
func (t *tracer) register(algo string, reg *obs.Registry) {
	engine.Register(tracedBackend, func(ctx context.Context, g *graph.Graph, cfg engine.Config) (engine.Estimator, error) {
		var inner engine.Estimator
		if algo == "crashsim" {
			inner = &coreSpans{g: g, t: t, p: core.Params{
				C: cfg.C, Eps: cfg.Eps, Delta: cfg.Delta,
				Iterations: cfg.Iterations, Workers: cfg.Workers, Seed: cfg.Seed,
			}}
		} else {
			est, err := engine.New(ctx, algo, g, cfg)
			if err != nil {
				return nil, err
			}
			inner = &readSpans{inner: est, t: t}
		}
		qc, err := cache.New(cache.Config{MaxBytes: cacheBytes, Metrics: reg})
		if err != nil {
			return nil, err
		}
		t.cache = qc
		cached, err := engine.Cached(inner, engine.CacheConfig{Cache: qc, Version: g.Version, Scope: cfg.Fingerprint()})
		if err != nil {
			return nil, err
		}
		es := &engineSpans{inner: cached, t: t}
		if _, ok := cached.(engine.TopKer); ok {
			return engineSpansAll{es}, nil
		}
		return es, nil
	})
}

// coreCounters are the obs.Default work counters the traced run reads.
var coreCounters = []string{"core.walks", "core.candidates", "core.prefilter_pruned"}

func readCounters() map[string]float64 {
	out := map[string]float64{}
	for _, name := range coreCounters {
		out[name] = float64(obs.Default.Counter(name).Load())
	}
	return out
}

// traceServing runs an untraced then a traced half window over the same
// request stream and reports the per-layer metrics.
func traceServing(e *env, w *workload, in *servingInputs, reqs []request, window time.Duration) (*outcome, error) {
	s := w.serving
	o := &outcome{}

	// Untraced half: the server as the end-to-end run sets it up, with a
	// span around ServeHTTP only.
	var ht handlerTimer
	base, err := startServer(s, in, ht.middleware, s.algo, true)
	if err != nil {
		return nil, err
	}
	_, err = warmAndDrive(e, s, base, reqs, in, window)
	base.close()
	base = nil // its index must not stay live beside the traced server's
	if err != nil {
		return nil, err
	}

	// Traced half.
	t := newTracer()
	l, err := func() (*live, error) {
		reg := obs.NewRegistry()
		t.register(s.algo, reg)
		return startServer(s, in, t.middleware, tracedBackend, false)
	}()
	if err != nil {
		return nil, err
	}
	defer l.close()
	e.set("graph.load_ms", float64(l.graphDur)/1e6)
	e.set("store.load_ms", float64(l.loadDur)/1e6)
	e.set("store.import_ms", float64(l.impDur)/1e6)
	e.set("server.new_ms", float64(l.newDur)/1e6)

	var (
		cachePre   cache.Stats
		countsPre  map[string]float64
		rejectsPre uint64
	)
	if s.warm {
		if err := warm(e, l, in); err != nil {
			return nil, err
		}
	}
	t.reset()
	cachePre = t.cache.Stats()
	countsPre = readCounters()
	rejectsPre = l.reg.Counter("server.rejected").Load()
	p, err := drive(e, s, l, reqs, window)
	if err != nil {
		return nil, err
	}
	cachePost := t.cache.Stats()
	counts := readCounters()
	for k, v := range countsPre {
		counts[k] -= v
	}

	var wrongs []error
	o.tally, o.latencies, o.sloOK, wrongs = p.judge(in.g.NumNodes(), w.limit)
	o.checkErrs = append(wrongs, deepCheck(s, in, l, p)...)
	o.allocated = p.memPost.TotalAlloc - p.memPre.TotalAlloc

	t.mu.Lock()
	defer t.mu.Unlock()
	reportLayers(e, t, p, counts)
	e.set("server.shed", float64(l.reg.Counter("server.rejected").Load()-rejectsPre))
	e.set("server.inflight_max", float64(t.inflightMax.Load()))
	hits := float64(cachePost.Hits - cachePre.Hits)
	misses := float64(cachePost.Misses - cachePre.Misses)
	e.set("cache.hit_ratio", ratio(hits, hits+misses))
	e.set("cache.coalesced", float64(cachePost.Coalesced-cachePre.Coalesced))
	e.set("cache.evictions", float64(cachePost.Evictions-cachePre.Evictions))
	e.set("gc.cycles", float64(p.memPost.NumGC-p.memPre.NumGC))
	e.set("gc.pause_ms", float64(p.memPost.PauseTotalNs-p.memPre.PauseTotalNs)/1e6)
	// Both halves send the same requests, so the overhead is the median
	// per-request difference of their handler times.
	var diffs []float64
	for idx, rec := range t.recs {
		if base, ok := ht.dur[idx]; ok {
			diffs = append(diffs, float64(rec.handler.end-rec.handler.start-base)/1e6)
		}
	}
	sort.Float64s(diffs)
	e.set("tracing.overhead_ms", percentile(diffs, 0.5))
	e.logf("tracing overhead: median of %d paired handler differences", len(diffs))
	return o, nil
}

// reportLayers turns the traced phase's spans into per-layer metrics.
// Per endpoint, a request's handler span splits into the engine spans
// inside it, the replayed rank time and the server's self time (parse,
// admission, encode); where the engine and rank spans exceed the handler
// span, the excess is reported as the unattributed share.
func reportLayers(e *env, t *tracer, p *phase, counts map[string]float64) {
	handler := map[string][]time.Duration{}
	self := map[string][]time.Duration{}
	engSum := map[string]time.Duration{}
	rankSum := map[string]time.Duration{}
	var (
		hit, miss, engSelf, transport []time.Duration
		handlerSum, excess            time.Duration
	)
	for idx, rec := range t.recs {
		if idx < 0 || idx >= len(p.samples) {
			continue
		}
		h := rec.handler.end - rec.handler.start
		handler[rec.endpoint] = append(handler[rec.endpoint], h)
		rest := selfTime(rec.handler, rec.engine) - rec.rank
		if rest < 0 {
			excess += -rest
			rest = 0
		}
		handlerSum += h
		self[rec.endpoint] = append(self[rec.endpoint], rest)
		rankSum[rec.endpoint] += rec.rank
		for i, sp := range rec.engine {
			engSum[rec.endpoint] += sp.end - sp.start
			if rec.hit[i] {
				hit = append(hit, sp.end-sp.start)
			} else {
				miss = append(miss, sp.end-sp.start)
			}
			engSelf = append(engSelf, selfTime(sp, rec.inner))
		}
		smp := &p.samples[idx]
		if smp.err == nil {
			transport = append(transport, smp.done.Sub(smp.sent)-h-rec.rank)
		}
	}
	for _, ep := range []string{"single", "topk", "batch"} {
		e.set("server.handler_ms."+ep+".p50", quantileMs(handler[ep], 0.5))
		e.set("server.handler_ms."+ep+".p90", quantileMs(handler[ep], 0.9))
		e.set("server.self_ms."+ep, meanMs(self[ep]))
		if n := len(handler[ep]); n > 0 {
			e.logf("%s: %d requests, mean handler %.3f ms = engine %.3f + rank %.3f + server self %.3f (+ overshoot)", ep, n,
				meanMs(handler[ep]), float64(engSum[ep])/1e6/float64(n), float64(rankSum[ep])/1e6/float64(n), meanMs(self[ep]))
		}
	}
	e.set("server.unattributed_share", ratio(float64(excess), float64(handlerSum)))
	e.set("server.transport_ms", meanMs(transport))
	e.set("engine.hit_ms", quantileMs(hit, 0.5))
	e.set("engine.miss_ms", quantileMs(miss, 0.5))
	e.set("engine.self_ms", meanMs(engSelf))
	for _, name := range []string{"metrics.topk", "core.revreach", "core.freeze", "core.estimate", "core.topk", "reads.query"} {
		e.set(name+"_ms", meanMs(t.stages[name]))
	}
	queries := t.counts["core.source_queries"]
	e.set("core.tree_support", ratio(t.counts["core.tree_support"], float64(len(t.stages["core.revreach"]))))
	e.set("core.walks_per_query", ratio(counts["core.walks"], queries))
	e.set("core.prune_ratio", ratio(counts["core.prefilter_pruned"], counts["core.candidates"]))
	e.set("load.lateness_ms", quantileMs(p.lateness(), 0.99))
	e.set("load.queue_ms", quantileMs(p.queued(), 0.99))
}
