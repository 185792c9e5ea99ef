// Package metrics implements the evaluation metrics of Section V:
// the per-query maximum error ME against ground truth, the result-set
// precision used for temporal queries, and small timing-summary helpers
// shared by the benchmark harness.
package metrics

import (
	"math"
	"sort"
	"time"

	"crashsim/internal/core"
	"crashsim/internal/graph"
)

// MaxError returns ME = max_v |est(v) − truth[v]| over all nodes. est is
// sparse: nodes absent from it are treated as estimate 0, matching the
// Monte-Carlo methods that only report nodes with positive mass.
func MaxError(truth []float64, est map[graph.NodeID]float64) float64 {
	me := 0.0
	for v, want := range truth {
		got := est[graph.NodeID(v)]
		if d := math.Abs(got - want); d > me {
			me = d
		}
	}
	return me
}

// Precision implements the paper's result-set metric
// |v(k1) ∩ v(k2)| / max(k1, k2), where truthSet is the ground-truth
// result set and gotSet the algorithm's. Two empty sets agree perfectly
// (precision 1).
func Precision(truthSet, gotSet []graph.NodeID) float64 {
	if len(truthSet) == 0 && len(gotSet) == 0 {
		return 1
	}
	in := make(map[graph.NodeID]struct{}, len(truthSet))
	for _, v := range truthSet {
		in[v] = struct{}{}
	}
	inter := 0
	for _, v := range gotSet {
		if _, ok := in[v]; ok {
			inter++
		}
	}
	denom := len(truthSet)
	if len(gotSet) > denom {
		denom = len(gotSet)
	}
	return float64(inter) / float64(denom)
}

// TopK returns the k nodes with the highest scores, ties broken by node
// id, excluding the source itself: the first k entries of core.Rank.
func TopK(scores map[graph.NodeID]float64, source graph.NodeID, k int) []graph.NodeID {
	ranked := core.Rank(scores, source)
	out := make([]graph.NodeID, min(k, len(ranked)))
	for i := range out {
		out[i] = ranked[i].Node
	}
	return out
}

// Timing summarizes a series of durations.
type Timing struct {
	Count int
	Total time.Duration
	Mean  time.Duration
	P50   time.Duration
	P95   time.Duration
	Max   time.Duration
}

// SummarizeTimes computes a Timing from raw samples. An empty input
// yields a zero Timing.
func SummarizeTimes(samples []time.Duration) Timing {
	t := Timing{Count: len(samples)}
	if len(samples) == 0 {
		return t
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, d := range sorted {
		t.Total += d
	}
	t.Mean = t.Total / time.Duration(len(sorted))
	t.P50 = quantile(sorted, 0.50)
	t.P95 = quantile(sorted, 0.95)
	t.Max = sorted[len(sorted)-1]
	return t
}

func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// MeanFloat returns the arithmetic mean, or 0 for an empty slice.
func MeanFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
