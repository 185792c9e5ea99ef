// Package crashsim is a from-scratch Go implementation of the ICDE 2020
// paper "CrashSim: An Efficient Algorithm for Computing SimRank over
// Static and Temporal Graphs" (Li et al.), together with every baseline
// it evaluates against.
//
// The package exposes the public API; the algorithm implementations live
// in internal packages:
//
//   - SingleSource / Partial / MultiSource / TopK / SinglePair /
//     SingleSourceWithError: CrashSim, the paper's index-free
//     single-source SimRank estimator with an (ε, δ) guarantee.
//   - QueryTemporal / QueryTemporalInterval / DurableTopK /
//     RecommendForUser: CrashSim-T, temporal trend, threshold, band,
//     durable-top-k and recommendation queries with delta and
//     difference pruning.
//   - Exact / ExactPair: Jeh–Widom Power Method ground truth.
//   - BaselineProbeSim, BuildSLING, BuildREADS, NewLinearSolver: the
//     compared algorithm families.
//   - ClusterGraph: SimRank-based clustering.
//
// Graphs are built with NewGraphBuilder or loaded with LoadGraph;
// temporal graphs with NewTemporalGraph, FromSnapshots or LoadTemporal;
// synthetic workloads with Datasets / GenerateStatic / GenerateTemporal
// / GeneratePurchaseGraph. See examples/ for runnable end-to-end
// programs and DESIGN.md for the mapping from the paper's sections to
// the code.
package crashsim

import (
	"context"
	"io"
	"time"

	"crashsim/internal/cache"
	"crashsim/internal/cluster"
	"crashsim/internal/core"
	"crashsim/internal/engine"
	"crashsim/internal/exact"
	"crashsim/internal/graph"
	"crashsim/internal/linsim"
	"crashsim/internal/probesim"
	"crashsim/internal/reads"
	"crashsim/internal/sling"
)

// NodeID identifies a node; nodes are dense integers in [0, n).
type NodeID = graph.NodeID

// Edge is a directed arc (or an undirected pair for undirected graphs).
type Edge = graph.Edge

// Graph is an immutable snapshot graph.
type Graph = graph.Graph

// GraphBuilder accumulates edges for an immutable Graph.
type GraphBuilder = graph.Builder

// Scores maps nodes to SimRank estimates for one source.
type Scores = core.Scores

// NewGraphBuilder returns a builder for a graph with n nodes.
func NewGraphBuilder(n int, directed bool) *GraphBuilder {
	return graph.NewBuilder(n, directed)
}

// LoadGraph reads an edge list (see internal/graph's format: "x y" lines,
// '#' comments, optional "# crashsim:" header).
func LoadGraph(r io.Reader) (*Graph, error) {
	return graph.ReadEdgeList(r)
}

// SaveGraph writes g in the edge-list format LoadGraph reads.
func SaveGraph(w io.Writer, g *Graph) error {
	return graph.WriteEdgeList(w, g)
}

// Options configures the CrashSim estimator. The zero value uses the
// paper's experimental defaults: c = 0.6, ε = 0.025, δ = 0.01, with the
// truncation length and iteration count derived from Theorem 1.
type Options struct {
	// C is the SimRank decay factor in (0,1). Default 0.6.
	C float64
	// Eps is the maximum tolerable absolute error. Default 0.025.
	Eps float64
	// Delta is the per-query failure probability. Default 0.01.
	Delta float64
	// Iterations overrides the theory-derived Monte-Carlo iteration
	// count n_r. The derived count is conservative; practical workloads
	// often use a few hundred to a few thousand iterations.
	Iterations int
	// Workers bounds estimator parallelism; results are identical for
	// any value. Default 1.
	Workers int
	// Seed makes results deterministic.
	Seed uint64
}

func (o Options) params() core.Params {
	return core.Params{
		C:          o.C,
		Eps:        o.Eps,
		Delta:      o.Delta,
		Iterations: o.Iterations,
		Workers:    o.Workers,
		Seed:       o.Seed,
	}
}

// SingleSource runs CrashSim: it returns SimRank estimates between u and
// every node of g, each within Eps of the true value with probability at
// least 1−Delta (Theorem 1 of the paper).
func SingleSource(g *Graph, u NodeID, opt Options) (Scores, error) {
	return core.SingleSource(g, u, nil, opt.params())
}

// Partial runs CrashSim restricted to the candidate set omega — the
// partial-computation mode that distinguishes CrashSim from other
// single-source algorithms and powers CrashSim-T.
func Partial(g *Graph, u NodeID, omega []NodeID, opt Options) (Scores, error) {
	return core.SingleSource(g, u, omega, opt.params())
}

// MultiSource answers a batch of single-source queries in one batched
// pipeline pass: each distinct source's reverse reachable tree is built
// once and all sources' walk kernels run through a single parallel
// fan-out (Workers bounds it). Results match per-source SingleSource
// calls bit-for-bit.
func MultiSource(g *Graph, sources []NodeID, opt Options) (map[NodeID]Scores, error) {
	res, err := core.MultiSource(context.Background(), g, sources, nil, opt.params())
	if err != nil {
		return nil, err
	}
	out := make(map[NodeID]Scores, len(sources))
	for i, u := range sources {
		out[u] = res[i]
	}
	return out, nil
}

// RankedNode is one answer of a top-k query.
type RankedNode = core.TopKResult

// TopK returns the k nodes most similar to u (excluding u), using a
// coarse-then-refine schedule built on CrashSim's partial mode.
func TopK(g *Graph, u NodeID, k int, opt Options) ([]RankedNode, error) {
	return core.TopK(g, u, k, opt.params())
}

// SinglePair estimates sim(u, v) alone, without computing the full
// single-source result.
func SinglePair(g *Graph, u, v NodeID, opt Options) (float64, error) {
	return core.SinglePair(g, u, v, opt.params())
}

// Estimator is the unified query interface over every algorithm family
// in the repository: context-aware single-source SimRank against one
// fixed graph. Build one with NewEstimator; answer top-k and pair
// queries uniformly with EstimatorTopK and EstimatorPair.
type Estimator = engine.Estimator

// EstimatorNames lists the selectable backends, sorted: "crashsim",
// "exact", "probesim", "reads", "sling".
func EstimatorNames() []string { return engine.Names() }

// NewEstimator builds the named backend over g. Index-based backends
// (sling, reads, exact) pay their whole index construction here,
// honoring ctx; the returned Estimator then serves concurrent queries.
func NewEstimator(ctx context.Context, name string, g *Graph, opt Options) (Estimator, error) {
	return engine.New(ctx, name, g, engine.Config{
		C: opt.C, Eps: opt.Eps, Delta: opt.Delta,
		Iterations: opt.Iterations, Workers: opt.Workers, Seed: opt.Seed,
	})
}

// CacheOptions sizes the optional query-result cache of
// NewCachedEstimator.
type CacheOptions struct {
	// MaxBytes bounds the cache's accounted size. Required (> 0).
	MaxBytes int64
	// TTL bounds entry age; zero means entries live until evicted or
	// their graph version is superseded.
	TTL time.Duration
}

// NewCachedEstimator is NewEstimator plus a private query-result cache:
// repeated identical queries are served from memory and concurrent
// identical queries trigger one backend computation. Results are
// bit-identical to the uncached estimator's — estimates are
// deterministic for a fixed seed — and entries are keyed on the graph's
// Version, so serving a newly frozen snapshot of an evolving graph
// through a new estimator never reuses results from the old edge set.
func NewCachedEstimator(ctx context.Context, name string, g *Graph, opt Options, co CacheOptions) (Estimator, error) {
	cfg := engine.Config{
		C: opt.C, Eps: opt.Eps, Delta: opt.Delta,
		Iterations: opt.Iterations, Workers: opt.Workers, Seed: opt.Seed,
	}
	est, err := engine.New(ctx, name, g, cfg)
	if err != nil {
		return nil, err
	}
	qc, err := cache.New(cache.Config{MaxBytes: co.MaxBytes, TTL: co.TTL})
	if err != nil {
		return nil, err
	}
	return engine.Cached(est, engine.CacheConfig{
		Cache:   qc,
		Version: g.Version,
		Scope:   cfg.Fingerprint(),
	})
}

// EstimatorTopK answers a top-k query through any Estimator, natively
// where the backend supports one and by ranking a full single-source
// pass otherwise.
func EstimatorTopK(ctx context.Context, est Estimator, u NodeID, k int) ([]RankedNode, error) {
	return engine.TopK(ctx, est, u, k)
}

// EstimatorPair answers sim(u, v) through any Estimator.
func EstimatorPair(ctx context.Context, est Estimator, u, v NodeID) (float64, error) {
	return engine.Pair(ctx, est, u, v)
}

// EstimatorMultiSource answers a batch of single-source queries through
// any Estimator — natively batched where the backend supports it
// (crashsim builds each distinct source's tree once and fans all
// sources out together), sequentially otherwise. The result is parallel
// to sources and matches per-source EstimatorTopK-style dispatch
// bit-for-bit.
func EstimatorMultiSource(ctx context.Context, est Estimator, sources []NodeID) ([]Scores, error) {
	return engine.MultiSource(ctx, est, sources)
}

// Exact computes the all-pairs SimRank ground truth with the Power
// Method (55 iterations by default, as in the paper's experiments). It
// stores an n×n matrix: intended for validation on small graphs.
func Exact(g *Graph, c float64) (*exact.Result, error) {
	return exact.PowerMethod(g, exact.PowerOptions{C: c})
}

// ExactPair computes sim(u, v) exactly without the n×n matrix, by
// iterating the SimRank recurrence over the node pairs reachable from
// (u, v) — practical on sparse graphs where Exact would not fit.
func ExactPair(g *Graph, u, v NodeID, c float64) (float64, error) {
	return exact.SinglePair(g, u, v, exact.SinglePairOptions{C: c})
}

// BaselineProbeSim runs the ProbeSim baseline (index-free, first-meeting
// probes) with iteration count nr (0 derives the theoretical count).
func BaselineProbeSim(g *Graph, u NodeID, opt Options) (Scores, error) {
	s, err := probesim.SingleSource(g, u, probesim.Options{
		C: opt.C, Eps: opt.Eps, Delta: opt.Delta,
		Iterations: opt.Iterations, Seed: opt.Seed,
	})
	if err != nil {
		return nil, err
	}
	return Scores(s), nil
}

// NodeEstimate is a SimRank score with its Monte-Carlo standard error.
type NodeEstimate = core.Estimate

// SingleSourceWithError is SingleSource with per-node uncertainty: the
// Score fields match SingleSource exactly, and an approximate 95%
// confidence interval is Score ± 2·StdErr.
func SingleSourceWithError(g *Graph, u NodeID, opt Options) (map[NodeID]NodeEstimate, error) {
	return core.SingleSourceWithError(g, u, nil, opt.params())
}

// LinearSolver is a deterministic single-source SimRank solver based on
// the linearized series S = Σ c^k W^k D (Wᵀ)^k (the related-work
// linearization family); build once, query many times with no sampling
// noise beyond the shared diagonal estimate.
type LinearSolver struct{ s *linsim.Solver }

// NewLinearSolver estimates the diagonal correction and returns a
// query-ready solver.
func NewLinearSolver(g *Graph, opt Options) (*LinearSolver, error) {
	s, err := linsim.New(g, linsim.Options{C: opt.C, Eps: opt.Eps, Seed: opt.Seed})
	if err != nil {
		return nil, err
	}
	return &LinearSolver{s: s}, nil
}

// SingleSource returns sim(u, ·) as a dense slice of length n.
func (l *LinearSolver) SingleSource(u NodeID) ([]float64, error) {
	return l.s.SingleSource(u)
}

// Clustering is a SimRank-based clustering of a graph.
type Clustering = cluster.Result

// ClusterGraph groups nodes by greedy SimRank seed expansion: every
// member of a cluster scores at least theta against the cluster's seed
// (one of the applications the paper's introduction motivates).
func ClusterGraph(g *Graph, theta float64, opt Options) (*Clustering, error) {
	return cluster.Greedy(g, cluster.Options{Theta: theta, Params: opt.params()})
}

// ClusterCoverage returns the fraction of edges internal to clusters —
// a community-style quality measure. For similarity clusters on
// citation-like graphs prefer ClusterAffinity, which measures shared
// in-neighbors instead of direct adjacency.
func ClusterCoverage(g *Graph, r *Clustering) float64 {
	return cluster.Coverage(g, r)
}

// ClusterAffinity returns the fraction of intra-cluster node pairs that
// share at least one in-neighbor — the first-order source of SimRank
// similarity and the natural quality measure for ClusterGraph results.
func ClusterAffinity(g *Graph, r *Clustering) float64 {
	return cluster.SharedNeighborAffinity(g, r)
}

// SLINGIndex is a built SLING index; construction is expensive, queries
// are fast.
type SLINGIndex struct{ ix *sling.Index }

// BuildSLING constructs the SLING baseline index over g.
func BuildSLING(g *Graph, opt Options) (*SLINGIndex, error) {
	ix, err := sling.Build(g, sling.Options{C: opt.C, Eps: opt.Eps, Seed: opt.Seed})
	if err != nil {
		return nil, err
	}
	return &SLINGIndex{ix: ix}, nil
}

// SingleSource queries the index.
func (s *SLINGIndex) SingleSource(u NodeID) (Scores, error) {
	m, err := s.ix.SingleSource(u)
	if err != nil {
		return nil, err
	}
	return Scores(m), nil
}

// READSIndex is a built READS index over a mutable graph; it supports
// incremental edge updates.
type READSIndex struct{ ix *reads.Index }

// BuildREADS constructs the READS baseline index from g's current edges.
// R is the stored-walks-per-node parameter (0 means the paper's 100).
func BuildREADS(g *Graph, r int, opt Options) (*READSIndex, error) {
	ix, err := engine.BuildReadsIndex(context.Background(), g, engine.Config{C: opt.C, ReadsR: r, Seed: opt.Seed})
	if err != nil {
		return nil, err
	}
	return &READSIndex{ix: ix}, nil
}

// SingleSource queries the index.
func (s *READSIndex) SingleSource(u NodeID) (Scores, error) {
	m, err := s.ix.SingleSource(u)
	if err != nil {
		return nil, err
	}
	return Scores(m), nil
}

// ApplyEdge updates the index for one edge insertion (add=true) or
// deletion, regenerating only the affected stored walks.
func (s *READSIndex) ApplyEdge(e Edge, add bool) error {
	return s.ix.ApplyEdge(e, add)
}
