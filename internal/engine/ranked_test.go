package engine

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"

	"crashsim/internal/core"
	"crashsim/internal/graph"
	"crashsim/internal/obs"
)

// rank is the ranking every top-k path shares; TestRankDeterministicTies
// pins its tie-break.
func rank(s core.Scores, u graph.NodeID) []core.TopKResult { return core.Rank(s, u) }

// TestRankedSharedEntryIsImmutable: many goroutines read one cached
// single-source entry through every accessor — Top, Map, SingleSource,
// MultiSource and TopK — and scribble over what they got back. Run
// under -race, it finds any accessor that hands out the stored slices;
// afterwards every read must still see the original values.
func TestRankedSharedEntryIsImmutable(t *testing.T) {
	g := testGraph(t)
	cfg := testConfig()
	cfg.Metrics = obs.NewRegistry()
	plain, err := New(context.Background(), "crashsim", g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	est, err := Cached(plain, CacheConfig{Cache: testCache(t), Version: g.Version})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const u = 3
	want, err := plain.SingleSource(ctx, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantTop := rank(want, u)[:10]

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				r, err := RankedSingleSource(ctx, est, u)
				if err != nil {
					t.Error(err)
					return
				}
				for j, top := range [][]core.TopKResult{r.Top(10), r.Top(len(want))} {
					for x := range top {
						top[x] = core.TopKResult{Node: graph.NodeID(j), Score: -1}
					}
				}
				m := r.Map()
				for v := range m {
					m[v] = -1
				}
				m[-7] = 2
				if s, err := est.SingleSource(ctx, u, nil); err == nil {
					clear(s)
				}
				if b, err := MultiSource(ctx, est, []graph.NodeID{u, u}); err == nil {
					b[0][u] = -1
					clear(b[1])
				}
				if rs, err := RankedMultiSource(ctx, est, []graph.NodeID{u}); err == nil {
					rs[0].Top(3)[0].Score = -1
				}
				if top, err := TopK(ctx, est, u, 10); err == nil {
					top[0].Score = -1
				}
			}
		}()
	}
	wg.Wait()

	r, err := RankedSingleSource(ctx, est, u)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Top(10); !reflect.DeepEqual(got, wantTop) {
		t.Errorf("Top(10) after concurrent mutation = %v, want %v", got, wantTop)
	}
	got := r.Map()
	if len(got) != len(want) {
		t.Fatalf("Map() has %d entries after concurrent mutation, want %d", len(got), len(want))
	}
	for v, s := range want {
		if g, ok := got[v]; !ok || math.Float64bits(g) != math.Float64bits(s) {
			t.Fatalf("Map()[%d] = %v after concurrent mutation, want %v", v, g, s)
		}
	}
}
