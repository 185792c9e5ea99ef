package engine_test

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"crashsim/internal/cache"
	"crashsim/internal/core"
	"crashsim/internal/engine"
	"crashsim/internal/gen"
	"crashsim/internal/graph"
	"crashsim/internal/metrics"
	"crashsim/internal/obs"
	"crashsim/internal/server"
)

// sortRank is the comparator sort engine.TopK's fallback ran over a
// full score map before results were cached ranked.
func sortRank(s core.Scores, u graph.NodeID) []core.TopKResult {
	out := make([]core.TopKResult, 0, len(s))
	for v, score := range s {
		if v != u {
			out = append(out, core.TopKResult{Node: v, Score: score})
		}
	}
	slices.SortFunc(out, func(a, b core.TopKResult) int {
		switch {
		case a.Score > b.Score:
			return -1
		case a.Score < b.Score:
			return 1
		default:
			return int(a.Node) - int(b.Node)
		}
	})
	return out
}

func serve(s *server.Server, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// TestRankedMatchesMapAllBackends: on every backend, the ranked result
// a cache entry holds is the backend's map, bit for bit, and every
// answer derived from it — Top, the TopK fallback and the three HTTP
// list endpoints — equals what ranking the uncached map returns.
func TestRankedMatchesMapAllBackends(t *testing.T) {
	edges, err := gen.ChungLu(300, 1800, 2.0, true, 7) // small enough for exact's all-pairs guard
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.BuildStatic(300, true, edges)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	ctx := context.Background()
	params := core.Params{Iterations: 60, Seed: 1}
	for _, name := range engine.Names() {
		t.Run(name, func(t *testing.T) {
			ecfg := engine.Config{Iterations: params.Iterations, Seed: params.Seed, Metrics: obs.NewRegistry()}
			plain, err := engine.New(ctx, name, g, ecfg)
			if err != nil {
				t.Fatal(err)
			}
			qc, err := cache.New(cache.Config{MaxBytes: 8 << 20, Metrics: obs.NewRegistry()})
			if err != nil {
				t.Fatal(err)
			}
			cached, err := engine.Cached(plain, engine.CacheConfig{Cache: qc, Version: g.Version, Scope: ecfg.Fingerprint()})
			if err != nil {
				t.Fatal(err)
			}
			_, native := plain.(engine.TopKer)
			for _, u := range []graph.NodeID{0, 17} {
				full, err := plain.SingleSource(ctx, u, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, est := range []engine.Estimator{cached, cached, plain} { // miss, hit, uncached
					r, err := engine.RankedSingleSource(ctx, est, u)
					if err != nil {
						t.Fatal(err)
					}
					sameBits(t, fmt.Sprintf("u=%d Map()", u), r.Map(), full)
					for _, k := range []int{1, 10, n + 5} {
						top := r.Top(k)
						want := metrics.TopK(full, u, k)
						if len(top) != len(want) {
							t.Fatalf("u=%d Top(%d) has %d rows, metrics.TopK %d", u, k, len(top), len(want))
						}
						for i, v := range want {
							if top[i].Node != v || math.Float64bits(top[i].Score) != math.Float64bits(full[v]) {
								t.Fatalf("u=%d Top(%d)[%d] = %+v, want node %d score %v", u, k, i, top[i], v, full[v])
							}
						}
					}
				}
				for _, k := range []int{1, 10, n + 5} {
					got, err := engine.TopK(ctx, cached, u, k)
					if err != nil {
						t.Fatal(err)
					}
					want, err := engine.TopK(ctx, plain, u, k)
					if err != nil {
						t.Fatal(err)
					}
					if !native {
						want = sortRank(full, u)
						want = want[:min(k, len(want))]
					}
					if !slices.Equal(got, want) {
						t.Fatalf("u=%d TopK(%d) through the cache = %v, want %v", u, k, got, want)
					}
				}
			}

			cfg := server.Config{Graph: g, Algo: name, Params: params, Metrics: obs.NewRegistry()}
			plainSrv, err := server.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.CacheBytes, cfg.Metrics = 8<<20, obs.NewRegistry()
			cachedSrv, err := server.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range []struct{ method, path, body string }{
				{"GET", "/singlesource?u=17&k=10", ""},
				{"GET", "/topk?u=17&k=10", ""},
				{"GET", "/singlesource?u=0&k=1000", ""},
				{"POST", "/batch/singlesource", `{"sources":[0,17,5,0],"k":10}`},
				{"GET", "/topk?u=5&k=3", ""},
			} {
				want := serve(plainSrv, q.method, q.path, q.body)
				if want.Code != http.StatusOK {
					t.Fatalf("%s %s: %d %s", q.method, q.path, want.Code, want.Body)
				}
				for pass := 0; pass < 2; pass++ {
					if got := serve(cachedSrv, q.method, q.path, q.body); got.Body.String() != want.Body.String() {
						t.Errorf("%s %s pass %d: cached body\n%s\nuncached\n%s", q.method, q.path, pass, got.Body, want.Body)
					}
				}
			}
		})
	}
}

func sameBits(t *testing.T, what string, got, want core.Scores) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s has %d entries, want %d", what, len(got), len(want))
	}
	for v, s := range want {
		if g, ok := got[v]; !ok || math.Float64bits(g) != math.Float64bits(s) {
			t.Fatalf("%s[%d] = %v (present %t), want %v", what, v, g, ok, s)
		}
	}
}
