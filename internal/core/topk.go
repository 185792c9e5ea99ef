package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"

	"crashsim/internal/graph"
)

// TopKResult is one ranked answer of a top-k query.
type TopKResult struct {
	Node  graph.NodeID
	Score float64
}

// TopK answers the top-k single-source SimRank query: the k nodes most
// similar to u (excluding u itself), with their estimated scores.
func TopK(g *graph.Graph, u graph.NodeID, k int, p Params) ([]TopKResult, error) {
	return TopKCtx(context.Background(), g, u, k, p)
}

// TopKCtx is TopK with cancellation, forwarded to both estimator
// passes.
//
// It exploits CrashSim's partial-computation mode in two phases: a
// coarse pass over all nodes with a reduced iteration budget shortlists
// candidates whose coarse score could plausibly reach the top k, and a
// full-budget pass refines only the shortlist. The shortlist keeps every
// node within 2ε of the coarse k-th score, so a node is excluded only if
// both its coarse and refined scores would have to err by more than ε —
// the same per-node confidence Theorem 1 gives the plain estimator.
func TopKCtx(ctx context.Context, g *graph.Graph, u graph.NodeID, k int, p Params) ([]TopKResult, error) {
	q := p.withDefaults()
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, fmt.Errorf("core: top-k needs k >= 1, got %d", k)
	}
	n := g.NumNodes()
	nr := q.iterations(n)

	// Phase 1: coarse scores with a fraction of the budget.
	coarse := q
	coarse.Iterations = nr / 8
	if coarse.Iterations < 50 {
		coarse.Iterations = minInt(50, nr)
	}
	scores, err := SingleSourceCtx(ctx, g, u, nil, coarse)
	if err != nil {
		return nil, err
	}
	ranked := Rank(scores, u)
	if len(ranked) == 0 {
		return nil, nil
	}
	if k > len(ranked) {
		k = len(ranked)
	}

	// Phase 2: refine every candidate within 2ε of the coarse cut.
	cut := ranked[k-1].Score - 2*q.Eps
	var omega []graph.NodeID
	for _, r := range ranked {
		if r.Score >= cut {
			omega = append(omega, r.Node)
		}
	}
	refined := q
	refined.Iterations = nr
	rescored, err := SingleSourceCtx(ctx, g, u, omega, refined)
	if err != nil {
		return nil, err
	}
	final := Rank(rescored, u)
	if k > len(final) {
		k = len(final)
	}
	return final[:k], nil
}

// SinglePair estimates sim(u, v) with CrashSim's partial mode.
func SinglePair(g *graph.Graph, u, v graph.NodeID, p Params) (float64, error) {
	return SinglePairCtx(context.Background(), g, u, v, p)
}

// SinglePairCtx is SinglePair with cancellation.
func SinglePairCtx(ctx context.Context, g *graph.Graph, u, v graph.NodeID, p Params) (float64, error) {
	s, err := SingleSourceCtx(ctx, g, u, []graph.NodeID{v}, p)
	if err != nil {
		return 0, err
	}
	return s[v], nil
}

// compareRanked is the serving order of ranked results: score
// descending, ties by ascending node id. It is a total order on
// non-NaN scores, so a ranking never depends on map iteration order.
func compareRanked(a, b TopKResult) int {
	switch {
	case a.Score > b.Score:
		return -1
	case a.Score < b.Score:
		return 1
	default:
		return cmp.Compare(a.Node, b.Node)
	}
}

// Rank returns every entry of s except the source u, sorted by
// compareRanked. It is the one ranking every top-k path uses: the
// engine's fallback and ranked cache entries, metrics.TopK and TopKCtx.
//
// Single-source results often score most nodes exactly zero, so only
// the non-zero entries go through the score comparator; the zero block
// sorts by node id alone and is spliced in ahead of any negative
// scores, which yields the same order as one compareRanked sort.
func Rank(s Scores, u graph.NodeID) []TopKResult {
	n := len(s)
	if _, ok := s[u]; ok {
		n--
	}
	out := make([]TopKResult, n)
	nz, z := 0, n // non-zero entries fill from the front, zeros from the back
	for v, score := range s {
		if v == u {
			continue
		}
		if score == 0 {
			z--
			out[z] = TopKResult{Node: v, Score: score}
		} else {
			out[nz] = TopKResult{Node: v, Score: score}
			nz++
		}
	}
	slices.SortFunc(out[:nz], compareRanked)
	zeros := out[nz:]
	slices.SortFunc(zeros, func(a, b TopKResult) int { return cmp.Compare(a.Node, b.Node) })
	// Negative scores rank below the zero block.
	if neg := sort.Search(nz, func(i int) bool { return out[i].Score < 0 }); neg < nz && len(zeros) > 0 {
		tail := slices.Clone(out[neg:nz])
		copy(out[neg:], zeros)
		copy(out[neg+len(zeros):], tail)
	}
	return out
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
