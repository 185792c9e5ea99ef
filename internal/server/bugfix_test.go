package server

import (
	"context"
	"net/http"
	"strings"
	"testing"

	"crashsim/internal/core"
	"crashsim/internal/engine"
	"crashsim/internal/graph"
	"crashsim/internal/obs"
)

// Regression: /stats used to recompute graph.ComputeStats — an O(n+m)
// sweep — on every request, on an endpoint outside the admission gate.
// The graph is immutable, so the sweep happens exactly once, in New;
// the server.stats_computed counter pins that.
func TestStatsComputedOnce(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := New(Config{
		Graph:   graph.PaperExample(),
		Params:  core.Params{Iterations: 50, Seed: 1},
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("server.stats_computed").Load(); got != 1 {
		t.Fatalf("after New: server.stats_computed = %d, want 1", got)
	}
	for i := 0; i < 2; i++ {
		if rec, body := get(t, s, "/stats"); rec.Code != http.StatusOK || body["nodes"].(float64) != 8 {
			t.Fatalf("stats call %d: %d %v", i, rec.Code, body)
		}
	}
	if got := reg.Counter("server.stats_computed").Load(); got != 1 {
		t.Fatalf("after two /stats calls: server.stats_computed = %d, want 1 (handler re-walked the graph)", got)
	}
}

// Regression: handleBatch used to hand the decoder an unbounded body —
// MaxBatch only applied after the whole body was buffered. An oversized
// body is now a client error (400), not a decoder blowup.
func TestBatchBodyTooLarge(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := New(Config{
		Graph:    graph.PaperExample(),
		Params:   core.Params{Iterations: 50, Seed: 1},
		MaxBatch: 4,
		Metrics:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A syntactically valid body well past maxBatchBody (4*32+4096).
	huge := `{"sources":[` + strings.Repeat("1234567890123456,", 4096) + `1]}`
	if int64(len(huge)) <= s.maxBatchBody() {
		t.Fatalf("test body of %d bytes does not exceed the %d-byte limit", len(huge), s.maxBatchBody())
	}
	rec, body := post(t, s, "/batch/singlesource", huge)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("oversized batch body answered %d (%v), want 400", rec.Code, body)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "exceeds") {
		t.Fatalf("oversized-body error %q does not name the limit", msg)
	}
	// A normal batch on the same server still works.
	if rec, body := post(t, s, "/batch/singlesource", `{"sources":[0,1]}`); rec.Code != http.StatusOK {
		t.Fatalf("small batch after oversized one: %d %v", rec.Code, body)
	}
}

// Regression: a weight-N batch used to tick server.queries once while
// admission charged N units, so served counts could not be reconciled
// with the gate or with rejected weight. Both counters now account in
// admission-weight units.
func TestServedAndRejectedCountWeight(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := New(Config{
		Graph:   graph.PaperExample(),
		Params:  core.Params{Iterations: 50, Seed: 1},
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec, body := get(t, s, "/singlesource?u=0&k=2"); rec.Code != http.StatusOK {
		t.Fatalf("scalar query: %d %v", rec.Code, body)
	}
	if rec, body := post(t, s, "/batch/singlesource", `{"sources":[0,1,2,3]}`); rec.Code != http.StatusOK {
		t.Fatalf("batch query: %d %v", rec.Code, body)
	}
	if got := reg.Counter("server.queries").Load(); got != 5 {
		t.Fatalf("server.queries = %d, want 5 (1 scalar + 4-source batch)", got)
	}
	if got := reg.Counter("server.rejected").Load(); got != 0 {
		t.Fatalf("server.rejected = %d, want 0", got)
	}
}

// Config.SlingIndex reaches the engine: a compatible preloaded index is
// accepted (skipping the build), an incompatible one fails New instead
// of silently serving wrong-graph scores.
func TestConfigPreloadedIndexPassthrough(t *testing.T) {
	g := graph.PaperExample()
	sl, _ := engine.LookupIndex("sling")
	ecfg := engine.Config{Seed: 1, SlingDSamples: 16}
	if err := sl.Build(context.Background(), g, &ecfg); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Graph:      g,
		Algo:       "sling",
		Params:     core.Params{Seed: 1},
		Metrics:    obs.NewRegistry(),
		SlingIndex: ecfg.SlingIndex,
	}
	// The server's engine config maps Params onto sling options; the
	// index above was built with matching seed but its own DSamples, so
	// force agreement by building exactly what the server would ask for.
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted a preloaded index with mismatched options")
	}
	ecfg = engine.Config{Seed: 1}
	if err := sl.Build(context.Background(), g, &ecfg); err != nil {
		t.Fatal(err)
	}
	cfg.SlingIndex = ecfg.SlingIndex
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec, body := get(t, s, "/singlesource?u=0&k=3"); rec.Code != http.StatusOK {
		t.Fatalf("query through preloaded index: %d %v", rec.Code, body)
	}
}
