package server

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"crashsim/internal/core"
	"crashsim/internal/gen"
	"crashsim/internal/graph"
	"crashsim/internal/obs"
)

func chungLu(t testing.TB, n int) *graph.Graph {
	t.Helper()
	edges, err := gen.ChungLu(n, 6*n, 2.0, true, 7)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.BuildStatic(n, true, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func serve(s *Server, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// hitCost serves one warmed request repeatedly through ServeHTTP and
// returns the allocations and bytes allocated per request.
func hitCost(t *testing.T, s *Server, method, path, body string) (allocs, bytes float64) {
	t.Helper()
	const runs = 50
	do := func() {
		if rec := serve(s, method, path, body); rec.Code != http.StatusOK {
			t.Fatalf("%s %s: %d %s", method, path, rec.Code, rec.Body)
		}
	}
	do() // fill the cache
	allocs = testing.AllocsPerRun(runs, do)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		do()
	}
	runtime.ReadMemStats(&after)
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestCachedHitAllocationBudget: a cached /singlesource?k=10 hit, a
// cached 4-source batch, and cached /topk and /pair hits cost a fixed
// number of allocations and bytes, whatever the graph size. Serving a
// hit by cloning the cached score map and sorting all of it costs O(n)
// of both: 61 KiB per single hit at n=1000, 425 KiB at n=8000. The
// budgets are the values measured when they were set (47 allocs /
// 8.8 KiB, 64 allocs / 12 KiB, 46 allocs / 8.6 KiB and 44 allocs /
// 7.8 KiB) plus headroom for the race detector, whose sync.Pool drops
// add a few allocations.
func TestCachedHitAllocationBudget(t *testing.T) {
	for _, q := range []struct {
		method, path, body string
		allocs, bytes      float64
	}{
		{"GET", "/singlesource?u=1&k=10", "", 64, 16 << 10},
		{"POST", "/batch/singlesource", `{"sources":[1,2,3,4],"k":10}`, 96, 24 << 10},
		{"GET", "/topk?u=1&k=10", "", 64, 16 << 10},
		{"GET", "/pair?u=1&v=2", "", 64, 16 << 10},
	} {
		var cost [2][2]float64
		for i, n := range []int{1000, 8000} {
			s, err := New(Config{
				Graph:      chungLu(t, n),
				Params:     core.Params{Iterations: 20, Seed: 1},
				CacheBytes: 64 << 20,
				Metrics:    obs.NewRegistry(),
			})
			if err != nil {
				t.Fatal(err)
			}
			allocs, bytes := hitCost(t, s, q.method, q.path, q.body)
			t.Logf("%s %s n=%d: %.0f allocs, %.0f bytes per hit", q.method, q.path, n, allocs, bytes)
			if allocs > q.allocs || bytes > q.bytes {
				t.Errorf("%s %s n=%d: %.0f allocs, %.0f bytes per hit; budget %.0f allocs, %.0f bytes",
					q.method, q.path, n, allocs, bytes, q.allocs, q.bytes)
			}
			cost[i] = [2]float64{allocs, bytes}
		}
		if small, large := cost[0], cost[1]; large[0] > small[0]+8 || large[1] > 1.25*small[1] {
			t.Errorf("%s %s: per-hit cost grows with n: %.0f allocs, %.0f bytes at n=1000 vs %.0f, %.0f at n=8000",
				q.method, q.path, small[0], small[1], large[0], large[1])
		}
	}
}
