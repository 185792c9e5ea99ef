package engine

import (
	"context"
	"fmt"

	"crashsim/internal/core"
	"crashsim/internal/exact"
	"crashsim/internal/graph"
	"crashsim/internal/probesim"
	"crashsim/internal/prsim"
)

// crashSim adapts the paper's index-free estimator. It is the only
// family with a native partial mode, so omega goes straight through,
// and it implements TopKer and Pairer natively.
type crashSim struct {
	g *graph.Graph
	p core.Params
}

func newCrashSim(_ context.Context, g *graph.Graph, cfg Config) (Estimator, error) {
	p := core.Params{
		C: cfg.C, Eps: cfg.Eps, Delta: cfg.Delta,
		Iterations: cfg.Iterations, Workers: cfg.Workers, Seed: cfg.Seed,
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &crashSim{g: g, p: p}, nil
}

func (e *crashSim) Name() string { return "crashsim" }

func (e *crashSim) SingleSource(ctx context.Context, u graph.NodeID, omega []graph.NodeID) (core.Scores, error) {
	return core.SingleSourceCtx(ctx, e.g, u, omega, e.p)
}

func (e *crashSim) TopK(ctx context.Context, u graph.NodeID, k int) ([]core.TopKResult, error) {
	return core.TopKCtx(ctx, e.g, u, k, e.p)
}

func (e *crashSim) Pair(ctx context.Context, u, v graph.NodeID) (float64, error) {
	return core.SinglePairCtx(ctx, e.g, u, v, e.p)
}

func (e *crashSim) MultiSource(ctx context.Context, sources []graph.NodeID) ([]core.Scores, error) {
	return core.MultiSource(ctx, e.g, sources, nil, e.p)
}

// probeSim adapts the index-free ProbeSim baseline.
type probeSim struct {
	g *graph.Graph
	o probesim.Options
}

func newProbeSim(_ context.Context, g *graph.Graph, cfg Config) (Estimator, error) {
	o := probesim.Options{
		C: cfg.C, Eps: cfg.Eps, Delta: cfg.Delta,
		Iterations: cfg.Iterations, Seed: cfg.Seed,
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	return &probeSim{g: g, o: o}, nil
}

func (e *probeSim) Name() string { return "probesim" }

func (e *probeSim) SingleSource(ctx context.Context, u graph.NodeID, omega []graph.NodeID) (core.Scores, error) {
	s, err := probesim.SingleSourceCtx(ctx, e.g, u, e.o)
	if err != nil {
		return nil, err
	}
	return restrict(core.Scores(s), omega, e.g.NumNodes())
}

// indexEstimator adapts a prebuilt sling, reads or prsim index; New
// pays the index build unless Config carries a compatible preloaded
// one (see indexFamilies).
type indexEstimator[Ix interface {
	SingleSourceCtx(ctx context.Context, u graph.NodeID) (map[graph.NodeID]float64, error)
}] struct {
	name string
	g    *graph.Graph
	ix   Ix
}

func (e *indexEstimator[Ix]) Name() string { return e.name }

func (e *indexEstimator[Ix]) SingleSource(ctx context.Context, u graph.NodeID, omega []graph.NodeID) (core.Scores, error) {
	s, err := e.ix.SingleSourceCtx(ctx, u)
	if err != nil {
		return nil, err
	}
	return restrict(core.Scores(s), omega, e.g.NumNodes())
}

// prsimEstimator adds PRSim's native batch mode. Tail tables keep
// filling lazily (and concurrently) behind the index's per-node
// singleflight.
type prsimEstimator struct {
	*indexEstimator[*prsim.Index]
}

// MultiSource shares one lazy hub/tail table build per unique visited
// node across the whole batch; each entry is bit-identical to the
// corresponding SingleSource call.
func (e prsimEstimator) MultiSource(ctx context.Context, sources []graph.NodeID) ([]core.Scores, error) {
	res, err := e.ix.MultiSource(ctx, sources)
	if err != nil {
		return nil, err
	}
	out := make([]core.Scores, len(res))
	for i, s := range res {
		out[i] = core.Scores(s)
	}
	return out, nil
}

// exactEstimator adapts the Power Method ground truth; New pays the
// whole all-pairs fixed-point iteration (guarded by ExactMaxNodes), and
// queries are row reads.
type exactEstimator struct {
	g   *graph.Graph
	res *exact.Result
}

func newExact(ctx context.Context, g *graph.Graph, cfg Config) (Estimator, error) {
	res, err := exact.PowerMethodCtx(ctx, g, exact.PowerOptions{
		C: cfg.C, Iterations: cfg.ExactIterations,
		MaxNodes: cfg.ExactMaxNodes, Workers: cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	return &exactEstimator{g: g, res: res}, nil
}

func (e *exactEstimator) Name() string { return "exact" }

func (e *exactEstimator) SingleSource(ctx context.Context, u graph.NodeID, omega []graph.NodeID) (core.Scores, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := e.g.NumNodes()
	if u < 0 || int(u) >= n {
		return nil, fmt.Errorf("engine: source %d out of range for n=%d", u, n)
	}
	row := e.res.SingleSource(u)
	full := make(core.Scores, 64)
	for v, s := range row {
		if s != 0 {
			full[graph.NodeID(v)] = s
		}
	}
	return restrict(full, omega, n)
}

func (e *exactEstimator) Pair(ctx context.Context, u, v graph.NodeID) (float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	n := graph.NodeID(e.g.NumNodes())
	if u < 0 || u >= n || v < 0 || v >= n {
		return 0, fmt.Errorf("engine: pair (%d,%d) out of range for n=%d", u, v, n)
	}
	return e.res.Sim(u, v), nil
}
