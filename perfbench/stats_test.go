package main

import (
	"errors"
	"net/http"
	"testing"
	"time"

	"crashsim/internal/graph"
	"crashsim/internal/load"
)

func TestHighestSupportedNeedsTenBeyond(t *testing.T) {
	qs := []float64{0.5, 0.9, 0.99}
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false}, // 9 beyond the median
		{20, 0.5, true},
		{99, 0.5, true}, // 9 beyond p90
		{100, 0.9, true},
		{999, 0.9, true},
		{1000, 0.99, true},
		{5000, 0.99, true},
	} {
		got, ok := highestSupported(c.n, qs)
		if got != c.want || ok != c.ok {
			t.Errorf("n=%d: got p%g (%t), want p%g (%t)", c.n, got*100, ok, c.want*100, c.ok)
		}
	}
	if beyond(1000, 0.99) != 10 || beyond(20, 0.5) != 10 || beyond(36, 0.7) != 10 {
		t.Errorf("beyond miscounts: %d %d %d", beyond(1000, 0.99), beyond(20, 0.5), beyond(36, 0.7))
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	for q, want := range map[float64]float64{0: 1, 0.5: 2.5, 1: 4, 0.25: 1.75} {
		if got := percentile(xs, q); got != want {
			t.Errorf("p%g = %g, want %g", q*100, got, want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of nothing should be 0")
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	ms := time.Millisecond
	parent := interval{10 * ms, 50 * ms}
	for _, c := range []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"no children", nil, 40 * ms},
		{"disjoint", []interval{{12 * ms, 20 * ms}, {30 * ms, 35 * ms}}, 27 * ms},
		{"overlapping count once", []interval{{12 * ms, 25 * ms}, {20 * ms, 30 * ms}}, 22 * ms},
		{"nested count once", []interval{{12 * ms, 40 * ms}, {15 * ms, 20 * ms}}, 12 * ms},
		{"clipped to parent", []interval{{0, 15 * ms}, {45 * ms, 60 * ms}}, 30 * ms},
		{"outside parent", []interval{{60 * ms, 70 * ms}}, 40 * ms},
		{"covers parent", []interval{{0, 100 * ms}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self %v, want %v", c.name, got, c.want)
		}
	}
}

func TestTallyCountsEachFailureOnce(t *testing.T) {
	transport := errors.New("connection refused")
	wrong := errors.New("out of rank order")
	var tl tally
	tl.add(classify(http.StatusOK, nil, nil))
	tl.add(classify(http.StatusTooManyRequests, nil, nil))
	tl.add(classify(http.StatusInternalServerError, nil, nil))
	tl.add(classify(0, transport, nil))
	tl.add(classify(http.StatusOK, nil, wrong))
	// A body is judged only for a 2xx, and a transport error wins.
	tl.add(classify(http.StatusTooManyRequests, nil, wrong))
	tl.add(classify(http.StatusOK, transport, wrong))
	want := tally{attempted: 7, ok: 1, shed: 2, status: 1, transport: 2, wrong: 1}
	if tl != want {
		t.Fatalf("tally %+v, want %+v", tl, want)
	}
	if tl.failed() != 6 || tl.failedRatio() != 6.0/7 {
		t.Errorf("failed %d (ratio %g), want 6 (6/7)", tl.failed(), tl.failedRatio())
	}
}

func TestStreamRealizesTheMixPerBlock(t *testing.T) {
	pool := []graph.NodeID{1, 2, 3}
	for _, tc := range []struct {
		spec                 servingSpec
		single, topk, batchN int
	}{
		{servingSpec{}, 14, 3, 3},
		{servingSpec{noBatch: true}, 16, 4, 0},
	} {
		reqs, err := makeStream("test", 7, 5*mixBlock, pool, tc.spec.mix(), 0, 10)
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < 5; b++ {
			count := map[load.Kind]int{}
			for _, r := range reqs[b*mixBlock : (b+1)*mixBlock] {
				count[r.kind]++
				if want := map[bool]int{true: batchSize, false: 1}[r.kind == load.KindBatch]; len(r.sources) != want {
					t.Fatalf("%v request with %d sources", r.kind, len(r.sources))
				}
			}
			if count[load.KindSingle] != tc.single || count[load.KindTopK] != tc.topk || count[load.KindBatch] != tc.batchN {
				t.Errorf("noBatch=%t block %d mix %v, want %d/%d/%d", tc.spec.noBatch, b, count, tc.single, tc.topk, tc.batchN)
			}
		}
	}
	reqs, _ := makeStream("test", 7, 5*mixBlock, pool, load.DefaultMix(), 0, 10)
	again, _ := makeStream("test", 7, 2*mixBlock, pool, load.DefaultMix(), 0, 10)
	for i := range again {
		if again[i].kind != reqs[i].kind || again[i].at != reqs[i].at || again[i].sources[0] != reqs[i].sources[0] {
			t.Fatalf("request %d differs between a short and a long draw of one seed", i)
		}
	}
}
