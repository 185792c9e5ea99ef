package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"crashsim/internal/core"
	"crashsim/internal/gen"
	"crashsim/internal/graph"
	"crashsim/internal/rng"
	"crashsim/internal/temporal"
	"crashsim/internal/tempq"
)

// Shape of the temporal workload's history and queries.
const (
	temporalProfile   = "as-733"
	temporalSnapshots = 64
	temporalWindow    = 16 // snapshots per query interval
	// temporalActive is how many of a window's 15 transitions change
	// edges: the profile's 0.4 active fraction, fixed per window rather
	// than drawn, so query cost does not swing with the seed.
	temporalActive  = 6
	temporalSources = 64
	temporalIters   = 20
	temporalReps    = 9
	ablationChecks  = 2 // requests rerun with every incremental shortcut off
)

var (
	thresholdQuery = tempq.Threshold{Theta: 0.05}
	trendQuery     = tempq.Trend{Direction: tempq.Increasing, Slack: 0.01}
)

// prepTemporal writes a churned 64-snapshot history of as-733 and draws
// the query sources from snapshot 0's giant component. Every window of
// 16 snapshots has exactly temporalActive changing transitions, and the
// transitions between windows change edges too.
func prepTemporal(e *env) (string, []graph.NodeID, error) {
	p, err := gen.ProfileByName(temporalProfile)
	if err != nil {
		return "", nil, err
	}
	base, err := p.StaticEdges(e.seed)
	if err != nil {
		return "", nil, err
	}
	windows := temporalSnapshots / temporalWindow
	nActive := windows*temporalActive + windows - 1
	churned, err := gen.Churn(p.Nodes, p.Directed, base, gen.ChurnOptions{
		Snapshots: nActive + 1, AddRate: p.ChurnRate, DelRate: p.ChurnRate, ActiveFraction: 1, Seed: e.seed + 1,
	})
	if err != nil {
		return "", nil, err
	}
	r := rng.New(rng.SeedString(fmt.Sprintf("perfbench/temporal/active/%d", e.seed)))
	active := make([]bool, temporalSnapshots-1)
	for w := 0; w < windows; w++ {
		for _, i := range r.Perm(temporalWindow - 1)[:temporalActive] {
			active[w*temporalWindow+i] = true
		}
		if w > 0 {
			active[w*temporalWindow-1] = true
		}
	}
	deltas := make([]temporal.Delta, len(active))
	next := 0
	for t, a := range active {
		if a {
			deltas[t] = churned.Delta(next)
			next++
		}
	}
	tg, err := temporal.New(p.Nodes, p.Directed, base, deltas)
	if err != nil {
		return "", nil, err
	}
	path := filepath.Join(e.dir, "history.txt")
	if err := writeFile(path, func(w io.Writer) error { return temporal.Write(w, tg) }); err != nil {
		return "", nil, err
	}
	g0, err := tg.Snapshot(0)
	if err != nil {
		return "", nil, err
	}
	srcs := uniformSources(byDegree(g0, graph.GiantComponent(g0)), temporalSources,
		rng.SeedString(fmt.Sprintf("perfbench/temporal/sources/%d", e.seed)))
	return path, srcs, nil
}

// temporalResult is one request's answers: a threshold then a trend
// query over one window for one source.
type temporalResult struct {
	u        graph.NodeID
	from     int
	thr, trd *core.TemporalResult
}

// temporalRequest is request i of the stream: source i mod 64 over
// window i mod 4.
func temporalRequest(srcs []graph.NodeID, i int) (graph.NodeID, int) {
	return srcs[i%len(srcs)], (i % (temporalSnapshots / temporalWindow)) * temporalWindow
}

func temporalParams() core.Params {
	return core.Params{Iterations: temporalIters, Seed: estimatorSeed}
}

// runTemporal runs the library workload: one caller, closed loop.
func runTemporal(e *env, w *workload) (*outcome, error) {
	path, srcs, err := prepTemporal(e)
	if err != nil {
		return nil, fmt.Errorf("preparing inputs: %w", err)
	}
	o := &outcome{}
	var tg *temporal.Graph
	for rep := 0; rep < temporalReps; rep++ {
		runtime.GC()
		start := time.Now()
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		tg, err = temporal.Read(f)
		f.Close()
		if err != nil {
			return nil, err
		}
		o.setups = append(o.setups, time.Since(start))
	}
	runtime.GC()
	o.heapBytes = memStats().HeapAlloc
	e.set("temporal.load_ms", float64(o.setups[len(o.setups)-1])/1e6)

	var (
		stats    core.TemporalStats
		queries  int
		sliceDur []time.Duration
		queryDur []time.Duration
		results  []temporalResult
	)
	p := temporalParams()
	memPre := memStats()
	start := time.Now()
	deadline := start.Add(e.window)
	for i := 0; time.Now().Before(deadline); i++ {
		u, from := temporalRequest(srcs, i)
		t0 := time.Now()
		res, err := func() (temporalResult, error) {
			res := temporalResult{u: u, from: from}
			sl, err := tg.Slice(from, from+temporalWindow)
			if err != nil {
				return res, err
			}
			t1 := time.Now()
			if res.thr, err = core.CrashSimT(sl, u, thresholdQuery, p, core.TemporalOptions{}); err != nil {
				return res, err
			}
			t2 := time.Now()
			if res.trd, err = core.CrashSimT(sl, u, trendQuery, p, core.TemporalOptions{}); err != nil {
				return res, err
			}
			if e.trace {
				sliceDur = append(sliceDur, t1.Sub(t0))
				queryDur = append(queryDur, t2.Sub(t1), time.Since(t2))
			}
			return res, nil
		}()
		done := time.Now()
		var checkErr error
		if err == nil {
			checkErr = validateTemporal(res, tg.NumNodes())
		}
		// A library call that fails counts like a request that got no
		// response.
		k := classify(200, err, checkErr)
		o.tally.add(k)
		o.wall = done.Sub(start)
		if k == outWrong {
			o.checkErrs = append(o.checkErrs, checkErr)
		}
		if k != outOK {
			continue
		}
		lat := done.Sub(t0)
		o.latencies = append(o.latencies, lat)
		if lat <= w.limit {
			o.sloOK++
		}
		if len(results) < ablationChecks {
			results = append(results, res)
		}
		for _, r := range []*core.TemporalResult{res.thr, res.trd} {
			addStats(&stats, r.Stats)
			queries++
		}
	}
	memPost := memStats()
	o.allocated = memPost.TotalAlloc - memPre.TotalAlloc
	o.checkErrs = append(o.checkErrs, ablationCheck(tg, results)...)

	if e.trace {
		e.set("temporal.slice_ms", meanMs(sliceDur))
		e.set("core.crashsimt_ms", meanMs(queryDur))
		q := float64(queries)
		e.set("temporal.evaluated_per_query", ratio(float64(stats.Evaluated), q))
		reused := float64(stats.ReusedDelta + stats.ReusedDiff)
		e.set("temporal.reuse_ratio", ratio(reused, reused+float64(stats.Evaluated)))
		e.set("temporal.tree_patch_ratio", ratio(float64(stats.TreePatched), float64(stats.TreePatched+stats.TreeRebuilt)))
		e.set("temporal.candtree_hit_ratio", ratio(float64(stats.CandTreeHits), float64(stats.CandTreeHits+stats.CandTreeMisses)))
		e.set("temporal.frozen_reused", ratio(float64(stats.FrozenReused), q))
		e.set("gc.cycles", float64(memPost.NumGC-memPre.NumGC))
		e.set("gc.pause_ms", float64(memPost.PauseTotalNs-memPre.PauseTotalNs)/1e6)
		replay, err := replayHistory(tg)
		if err != nil {
			return nil, err
		}
		e.set("temporal.replay_ms", float64(replay)/1e6)
	}
	return o, nil
}

func addStats(dst *core.TemporalStats, s core.TemporalStats) {
	dst.Snapshots += s.Snapshots
	dst.Evaluated += s.Evaluated
	dst.ReusedDelta += s.ReusedDelta
	dst.ReusedDiff += s.ReusedDiff
	dst.TreeStableSteps += s.TreeStableSteps
	dst.TreePatched += s.TreePatched
	dst.TreeRebuilt += s.TreeRebuilt
	dst.FrozenReused += s.FrozenReused
	dst.CandTreeHits += s.CandTreeHits
	dst.CandTreeMisses += s.CandTreeMisses
}

// replayHistory times one temporal.Cursor pass over every delta.
func replayHistory(tg *temporal.Graph) (time.Duration, error) {
	start := time.Now()
	c, err := tg.Cursor()
	if err != nil {
		return 0, err
	}
	for c.Next() {
	}
	return time.Since(start), c.Err()
}

// validateTemporal checks one request's answers: each Omega sorted,
// distinct and in range, with Final scoring exactly the Omega nodes.
func validateTemporal(res temporalResult, n int) error {
	for _, r := range []*core.TemporalResult{res.thr, res.trd} {
		for i, v := range r.Omega {
			if v < 0 || int(v) >= n || (i > 0 && r.Omega[i-1] >= v) {
				return fmt.Errorf("source %d window %d: Omega not sorted, distinct node ids in range", res.u, res.from)
			}
			if _, ok := r.Final[v]; !ok {
				return fmt.Errorf("source %d window %d: Omega node %d has no final score", res.u, res.from, v)
			}
		}
		if len(r.Final) != len(r.Omega) {
			return fmt.Errorf("source %d window %d: %d final scores for %d Omega nodes", res.u, res.from, len(r.Final), len(r.Omega))
		}
	}
	return nil
}

// ablationCheck reruns the given requests with tree patching, the
// candidate-tree cache and frozen-tree reuse all off; Omega must not
// change.
func ablationCheck(tg *temporal.Graph, results []temporalResult) []error {
	off := core.TemporalOptions{DisableTreePatch: true, DisableCandidateCache: true, DisableFrozenReuse: true}
	var errs []error
	for _, res := range results {
		sl, err := tg.Slice(res.from, res.from+temporalWindow)
		if err != nil {
			return append(errs, err)
		}
		for _, q := range []struct {
			q   core.TemporalQuery
			got *core.TemporalResult
		}{{thresholdQuery, res.thr}, {trendQuery, res.trd}} {
			want, err := core.CrashSimT(sl, res.u, q.q, temporalParams(), off)
			if err != nil {
				errs = append(errs, err)
				continue
			}
			if !slices.Equal(q.got.Omega, want.Omega) {
				errs = append(errs, fmt.Errorf("%s source %d window %d: Omega has %d nodes, %d without the incremental shortcuts",
					q.q.Name(), res.u, res.from, len(q.got.Omega), len(want.Omega)))
			}
		}
	}
	return errs
}
