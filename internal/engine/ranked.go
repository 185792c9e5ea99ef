package engine

import (
	"context"

	"crashsim/internal/core"
	"crashsim/internal/graph"
)

// Ranked is an immutable single-source result, ranked once when it is
// built. The entries other than the source sit in parallel slices in
// core.Rank's order (score descending, ties by ascending node id); the
// source's own entry is kept apart. No method hands out the backing
// slices, so one Ranked is shared by every reader without copying the
// whole result: a top-k answer copies k rows.
type Ranked struct {
	nodes   []graph.NodeID
	scores  []float64
	source  graph.NodeID
	self    float64
	hasSelf bool // whether the backend's map held an entry for source
}

// Accounted size of a Ranked in a result cache: the struct with its
// two slice headers, plus a 4-byte node id and an 8-byte score per
// entry.
const (
	rankedBaseSize  = 64
	rankedEntrySize = 12
)

func newRanked(s core.Scores, u graph.NodeID) *Ranked {
	ranked := core.Rank(s, u)
	r := &Ranked{
		nodes:  make([]graph.NodeID, len(ranked)),
		scores: make([]float64, len(ranked)),
		source: u,
	}
	for i, e := range ranked {
		r.nodes[i], r.scores[i] = e.Node, e.Score
	}
	r.self, r.hasSelf = s[u]
	return r
}

// size is the accounted byte size of r.
func (r *Ranked) size() int64 {
	return rankedBaseSize + rankedEntrySize*int64(len(r.nodes))
}

// Top returns a fresh copy of the k best entries, the source excluded;
// fewer when the result has fewer.
func (r *Ranked) Top(k int) []core.TopKResult {
	out := make([]core.TopKResult, min(max(k, 0), len(r.nodes)))
	for i := range out {
		out[i] = core.TopKResult{Node: r.nodes[i], Score: r.scores[i]}
	}
	return out
}

// Map rebuilds the full result as a fresh map, equal key for key and
// bit for bit to the map the backend returned, zero-score and source
// entries included.
func (r *Ranked) Map() core.Scores {
	out := make(core.Scores, len(r.nodes)+1)
	for i, v := range r.nodes {
		out[v] = r.scores[i]
	}
	if r.hasSelf {
		out[r.source] = r.self
	}
	return out
}

// rankedSourcer is implemented by the result cache wrapper, which
// stores single-source results as Ranked and serves them without
// re-ranking.
type rankedSourcer interface {
	rankedSingleSource(ctx context.Context, u graph.NodeID, omega []graph.NodeID) (*Ranked, error)
	rankedMultiSource(ctx context.Context, sources []graph.NodeID) ([]*Ranked, error)
}

// RankedSingleSource answers sim(u, ·) as a Ranked result: the cached
// entry itself when est is a Cached wrapper, otherwise a ranking of one
// SingleSource map. Callers must treat it as read-only; its accessors
// return copies.
func RankedSingleSource(ctx context.Context, est Estimator, u graph.NodeID) (*Ranked, error) {
	if rs, ok := est.(rankedSourcer); ok {
		return rs.rankedSingleSource(ctx, u, nil)
	}
	s, err := est.SingleSource(ctx, u, nil)
	if err != nil {
		return nil, err
	}
	return newRanked(s, u), nil
}

// RankedMultiSource is the batch form of RankedSingleSource: one
// Ranked per entry of sources, through the cache's batch path when est
// is a Cached wrapper and otherwise through MultiSource. Unlike
// MultiSource's sequential fallback it is all-or-nothing: on error the
// result is nil.
func RankedMultiSource(ctx context.Context, est Estimator, sources []graph.NodeID) ([]*Ranked, error) {
	if rs, ok := est.(rankedSourcer); ok {
		return rs.rankedMultiSource(ctx, sources)
	}
	all, err := MultiSource(ctx, est, sources)
	if err != nil {
		return nil, err
	}
	out := make([]*Ranked, len(all))
	for i, s := range all {
		out[i] = newRanked(s, sources[i])
	}
	return out, nil
}
