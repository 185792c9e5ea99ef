package core

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"crashsim/internal/graph"
)

// TestRankMatchesComparatorSort checks Rank's zero-block shortcut
// against one plain comparator sort over every entry, on maps that mix
// positive, zero, negative-zero and negative scores with many ties, with
// and without the source present.
func TestRankMatchesComparatorSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	values := []float64{0.5, 0.25, 0.25, 0, 0, 0, negZero(), 1e-9, -0.1, -0.1, 0.9}
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(40)
		s := make(Scores, n)
		for v := 0; v < n; v++ {
			if rng.Intn(5) > 0 {
				s[graph.NodeID(v)] = values[rng.Intn(len(values))]
			}
		}
		u := graph.NodeID(rng.Intn(n + 1))
		want := make([]TopKResult, 0, len(s))
		for v, score := range s {
			if v != u {
				want = append(want, TopKResult{Node: v, Score: score})
			}
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].Score != want[j].Score {
				return want[i].Score > want[j].Score
			}
			return want[i].Node < want[j].Node
		})
		got := Rank(s, u)
		if !slices.EqualFunc(got, want, func(a, b TopKResult) bool { return a.Node == b.Node && a.Score == b.Score }) {
			t.Fatalf("trial %d: Rank = %v, want %v", trial, got, want)
		}
	}
}

func negZero() float64 {
	z := 0.0
	return -z
}
