package engine

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"crashsim/internal/cache"
	"crashsim/internal/core"
	"crashsim/internal/graph"
	"crashsim/internal/obs"
)

// TestMeteringCounts: every query through a built estimator shows up
// in the per-backend counters and the latency histogram.
func TestMeteringCounts(t *testing.T) {
	reg := obs.NewRegistry()
	g := graph.PaperExample()
	est, err := New(context.Background(), "crashsim", g, Config{Iterations: 50, Seed: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := est.SingleSource(context.Background(), 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := TopK(context.Background(), est, 0, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := Pair(context.Background(), est, 0, 3); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("engine.crashsim.queries").Load(); got != 3 {
		t.Errorf("queries = %d, want 3", got)
	}
	for _, op := range []string{"singlesource", "topk", "pair"} {
		if got := reg.Counter("engine.crashsim.queries." + op).Load(); got != 1 {
			t.Errorf("queries.%s = %d, want 1", op, got)
		}
	}
	if got := reg.Histogram("engine.crashsim.latency").Snapshot().Count; got != 3 {
		t.Errorf("latency count = %d, want 3", got)
	}
	if got := reg.Counter("engine.crashsim.errors").Load(); got != 0 {
		t.Errorf("errors = %d, want 0", got)
	}
}

// TestMeteringCancellation: a canceled query lands in the canceled
// counter, not errors.
func TestMeteringCancellation(t *testing.T) {
	reg := obs.NewRegistry()
	est, err := New(context.Background(), "crashsim", graph.PaperExample(),
		Config{Iterations: 50, Seed: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := est.SingleSource(ctx, 0, nil); err == nil {
		t.Fatal("canceled query succeeded")
	}
	if got := reg.Counter("engine.crashsim.canceled").Load(); got != 1 {
		t.Errorf("canceled = %d, want 1", got)
	}
	if got := reg.Counter("engine.crashsim.errors").Load(); got != 0 {
		t.Errorf("errors = %d, want 0", got)
	}
}

// TestConcurrentQueries serves every backend's three query ops from
// many goroutines through one shared (metered) estimator; under -race
// this checks the whole serving path — estimator, metering wrapper,
// core scratch pools — for data races, and that concurrent results
// stay identical to sequential ones.
func TestConcurrentQueries(t *testing.T) {
	g := graph.PaperExample()
	for _, algo := range Names() {
		est, err := New(context.Background(), algo, g, Config{Iterations: 80, Seed: 7, Metrics: obs.NewRegistry()})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		want, err := est.SingleSource(context.Background(), 0, nil)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		var wg sync.WaitGroup
		for i := 0; i < 6; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := est.SingleSource(context.Background(), 0, nil)
				if err != nil {
					t.Errorf("%s: concurrent single-source: %v", algo, err)
					return
				}
				for v, s := range want {
					if got[v] != s {
						t.Errorf("%s: concurrent score for %d = %g, want %g", algo, v, got[v], s)
						return
					}
				}
				if _, err := TopK(context.Background(), est, 0, 3); err != nil {
					t.Errorf("%s: concurrent top-k: %v", algo, err)
				}
				if _, err := Pair(context.Background(), est, 0, 3); err != nil {
					t.Errorf("%s: concurrent pair: %v", algo, err)
				}
			}()
		}
		wg.Wait()
	}
}

// TestMeteringPreservesCapabilities: the wrapper must advertise
// TopKer/Pairer exactly when the wrapped backend does, so the generic
// fallbacks keep working.
func TestMeteringPreservesCapabilities(t *testing.T) {
	g := graph.PaperExample()
	cases := []struct {
		algo       string
		topK, pair bool
	}{
		{"crashsim", true, true},
		{"probesim", false, false},
		{"exact", false, true},
	}
	for _, tc := range cases {
		est, err := New(context.Background(), tc.algo, g, Config{Iterations: 50, Seed: 1, Metrics: obs.NewRegistry()})
		if err != nil {
			t.Fatalf("%s: %v", tc.algo, err)
		}
		if _, ok := est.(TopKer); ok != tc.topK {
			t.Errorf("%s: TopKer = %t, want %t", tc.algo, ok, tc.topK)
		}
		if _, ok := est.(Pairer); ok != tc.pair {
			t.Errorf("%s: Pairer = %t, want %t", tc.algo, ok, tc.pair)
		}
		if est.Name() != tc.algo {
			t.Errorf("Name() = %q through wrapper, want %q", est.Name(), tc.algo)
		}
	}
}

// TestCapabilityRouting pins which inner op each package-level entry
// point reaches, on every backend, plain and behind Cached: the
// engine.<backend>.queries.* and cache hit/miss deltas of each call,
// and that every form answers with the same result bits. A Cached
// estimator is called twice, so the second call shows which entry the
// first one filled (TopK on a backend without native top-k hits the
// "ss" entry, for instance).
func TestCapabilityRouting(t *testing.T) {
	type tally struct{ queries, ss, topk, pair, multi, hits, misses uint64 }
	sources := []graph.NodeID{0, 3, 0}
	ops := []struct {
		name string
		run  func(ctx context.Context, est Estimator) (string, error)
	}{
		{"topk", func(ctx context.Context, est Estimator) (string, error) {
			r, err := TopK(ctx, est, 0, 3)
			return routingBits(r), err
		}},
		{"pair", func(ctx context.Context, est Estimator) (string, error) {
			s, err := Pair(ctx, est, 0, 3)
			return routingBits(s), err
		}},
		{"multisource", func(ctx context.Context, est Estimator) (string, error) {
			r, err := MultiSource(ctx, est, sources)
			return routingBits(r), err
		}},
		{"ranked", func(ctx context.Context, est Estimator) (string, error) {
			r, err := RankedSingleSource(ctx, est, 0)
			if err != nil {
				return "", err
			}
			return routingBits([]any{r.Top(100), r.Map()}), nil
		}},
	}
	// Which optional interfaces each backend implements natively.
	native := map[string]map[string]bool{
		"crashsim": {"topk": true, "pair": true, "multisource": true},
		"exact":    {"pair": true},
		"probesim": {},
		"prsim":    {"multisource": true},
		"reads":    {},
		"sling":    {},
	}
	// Deltas of one plain call and of the first and second Cached call,
	// by op and whether the backend serves it natively.
	type key struct {
		op     string
		native bool
	}
	want := map[key][3]tally{
		{"topk", true}:         {{queries: 1, topk: 1}, {queries: 1, topk: 1, misses: 1}, {hits: 1}},
		{"topk", false}:        {{queries: 1, ss: 1}, {queries: 1, ss: 1, misses: 1}, {hits: 1}},
		{"pair", true}:         {{queries: 1, pair: 1}, {queries: 1, pair: 1, misses: 1}, {hits: 1}},
		{"pair", false}:        {{queries: 1, ss: 1}, {queries: 1, ss: 1, misses: 1}, {hits: 1}},
		{"multisource", true}:  {{queries: 3, multi: 1}, {queries: 2, multi: 1, misses: 4}, {hits: 3}},
		{"multisource", false}: {{queries: 3, ss: 3}, {queries: 2, ss: 2, misses: 2, hits: 1}, {hits: 3}},
		{"ranked", false}:      {{queries: 1, ss: 1}, {queries: 1, ss: 1, misses: 1}, {hits: 1}},
	}

	ctx := context.Background()
	g := graph.PaperExample()
	for _, name := range Names() {
		for _, op := range ops {
			reg := obs.NewRegistry()
			read := func() tally {
				p := "engine." + name + ".queries"
				return tally{
					reg.Counter(p).Load(), reg.Counter(p + ".singlesource").Load(),
					reg.Counter(p + ".topk").Load(), reg.Counter(p + ".pair").Load(),
					reg.Counter(p + ".multisource").Load(),
					reg.Counter("cache.hits").Load(), reg.Counter("cache.misses").Load(),
				}
			}
			c, err := cache.New(cache.Config{MaxBytes: 8 << 20, Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			plain, err := New(ctx, name, g, Config{Iterations: 50, Seed: 1, Metrics: reg})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			cached, err := Cached(plain, CacheConfig{Cache: c, Scope: name})
			if err != nil {
				t.Fatal(err)
			}
			exp, ok := want[key{op.name, native[name][op.name]}]
			if !ok {
				t.Fatalf("no expectation for %s on %s", op.name, name)
			}
			var first string
			for i, est := range []Estimator{plain, cached, cached} {
				before := read()
				bits, err := op.run(ctx, est)
				if err != nil {
					t.Fatalf("%s %s call %d: %v", name, op.name, i, err)
				}
				after := read()
				got := tally{
					after.queries - before.queries, after.ss - before.ss,
					after.topk - before.topk, after.pair - before.pair,
					after.multi - before.multi,
					after.hits - before.hits, after.misses - before.misses,
				}
				if got != exp[i] {
					t.Errorf("%s %s call %d: deltas %+v, want %+v", name, op.name, i, got, exp[i])
				}
				if i == 0 {
					first = bits
				} else if bits != first {
					t.Errorf("%s %s call %d: result bits differ from the plain call", name, op.name, i)
				}
			}
		}
	}
}

// routingBits renders a query result with every score as its IEEE-754
// bits, map entries in node order, so two results compare bit for bit.
func routingBits(v any) string {
	var b strings.Builder
	var walk func(v any)
	walk = func(v any) {
		switch v := v.(type) {
		case float64:
			fmt.Fprintf(&b, "%x ", math.Float64bits(v))
		case []core.TopKResult:
			for _, r := range v {
				fmt.Fprintf(&b, "%d:", r.Node)
				walk(r.Score)
			}
		case core.Scores:
			nodes := make([]graph.NodeID, 0, len(v))
			for u := range v {
				nodes = append(nodes, u)
			}
			slices.Sort(nodes)
			for _, u := range nodes {
				fmt.Fprintf(&b, "%d=", u)
				walk(v[u])
			}
		case []core.Scores:
			for _, s := range v {
				walk(s)
				b.WriteString("| ")
			}
		case []any:
			for _, x := range v {
				walk(x)
				b.WriteString("| ")
			}
		}
	}
	walk(v)
	return b.String()
}
