package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"crashsim/internal/core"
	"crashsim/internal/engine"
	"crashsim/internal/graph"
	"crashsim/internal/obs"
)

func post(t *testing.T, s *Server, path, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("%s: bad JSON %q: %v", path, rec.Body.String(), err)
	}
	return rec, out
}

// TestBatchSingleSource: the batch endpoint returns per-item ranked
// results in request order, duplicates included, matching the scalar
// /singlesource endpoint, and an out-of-range source fails alone with
// its own error entry.
func TestBatchSingleSource(t *testing.T) {
	s := testServer(t)
	rec, body := post(t, s, "/batch/singlesource", `{"sources":[0,3,0,99],"k":3}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch: %d %v", rec.Code, body)
	}
	if body["k"].(float64) != 3 {
		t.Errorf("k = %v, want 3", body["k"])
	}
	items := body["items"].([]any)
	if len(items) != 4 {
		t.Fatalf("batch returned %d items, want 4", len(items))
	}
	bad := items[3].(map[string]any)
	if bad["source"].(float64) != 99 || bad["error"] == nil || bad["results"] != nil {
		t.Errorf("out-of-range item = %v, want a bare error entry for source 99", bad)
	}
	// Batched results must match the scalar endpoint (same estimator,
	// deterministic seed), and the duplicate source must match itself.
	_, scalar := get(t, s, "/singlesource?u=0&k=3")
	first := items[0].(map[string]any)
	dup := items[2].(map[string]any)
	want := scalar["results"].([]any)
	for name, got := range map[string][]any{"first": first["results"].([]any), "dup": dup["results"].([]any)} {
		if len(got) != len(want) {
			t.Fatalf("%s: %d results, want %d", name, len(got), len(want))
		}
		for i := range want {
			w, g := want[i].(map[string]any), got[i].(map[string]any)
			if w["node"] != g["node"] || w["score"] != g["score"] {
				t.Errorf("%s result %d: %v != scalar %v", name, i, g, w)
			}
		}
	}
}

func TestBatchValidation(t *testing.T) {
	s, err := New(Config{
		Graph:    graph.PaperExample(),
		Params:   core.Params{Iterations: 50, Seed: 1},
		MaxBatch: 2,
		Metrics:  obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{
		"malformed": `{"sources":`,
		"empty":     `{"sources":[]}`,
		"oversized": `{"sources":[0,1,2]}`,
		"bad k":     `{"sources":[0],"k":-1}`,
		"unknown":   `{"sources":[0],"k":2,"kk":3}`,
		"trailing":  `{"sources":[0],"k":2} x`,
		"two":       `{"sources":[0]}{"sources":[1]}`,
	} {
		if rec, resp := post(t, s, "/batch/singlesource", body); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: %d %v, want 400", name, rec.Code, resp)
		}
	}
	if rec, resp := post(t, s, "/batch/singlesource", " {\"sources\":[0],\"k\":2}\n\t "); rec.Code != http.StatusOK {
		t.Errorf("whitespace around the body: %d %v, want 200", rec.Code, resp)
	}
}

// batchBlockingEstimator parks every query until release closes, with
// enough started-signal buffer for a whole batch's sequential fallback.
type batchBlockingEstimator struct {
	started chan struct{}
	release chan struct{}
}

func (b batchBlockingEstimator) Name() string { return "batchblock" }

func (b batchBlockingEstimator) SingleSource(ctx context.Context, u graph.NodeID, _ []graph.NodeID) (core.Scores, error) {
	b.started <- struct{}{}
	select {
	case <-b.release:
		return core.Scores{u: 1}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// TestBatchAdmissionWeighted: with the weighted in-flight budget held
// by a parked scalar query, a batch must be rejected with 429 +
// Retry-After (its weight cannot fit), while /health and /metrics
// bypass admission control entirely. Once the budget frees, the same
// batch is admitted — even though its weight exceeds the whole budget,
// an idle server runs it alone rather than never.
func TestBatchAdmissionWeighted(t *testing.T) {
	est := batchBlockingEstimator{started: make(chan struct{}, 8), release: make(chan struct{})}
	engine.Register("batchblock", func(context.Context, *graph.Graph, engine.Config) (engine.Estimator, error) {
		return est, nil
	})
	reg := obs.NewRegistry()
	s, err := New(Config{
		Graph:       graph.PaperExample(),
		Algo:        "batchblock",
		MaxInFlight: 1,
		Metrics:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		req := httptest.NewRequest(http.MethodGet, "/singlesource?u=0", nil)
		s.ServeHTTP(httptest.NewRecorder(), req)
	}()
	<-est.started // the whole weighted budget is now held

	rec, body := post(t, s, "/batch/singlesource", `{"sources":[0,1]}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated server answered batch with %d (%v), want 429", rec.Code, body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	if got := reg.Counter("server.rejected").Load(); got != 2 {
		t.Errorf("server.rejected = %d, want 2 (the rejected batch's weight)", got)
	}
	// Health and metrics stay outside the gate.
	if rec, _ := get(t, s, "/health"); rec.Code != http.StatusOK {
		t.Errorf("health behind admission gate: %d", rec.Code)
	}
	if rec, _ := get(t, s, "/metrics"); rec.Code != http.StatusOK {
		t.Errorf("metrics behind admission gate: %d", rec.Code)
	}

	close(est.release)
	wg.Wait()
	rec, body = post(t, s, "/batch/singlesource", `{"sources":[0,1]}`)
	if rec.Code != http.StatusOK {
		t.Errorf("freed server answered batch with %d (%v), want 200", rec.Code, body)
	}
	if got := reg.Gauge("server.inflight").Load(); got != 0 {
		t.Errorf("weighted inflight gauge = %d after drain, want 0", got)
	}
}

// TestBatchMetrics: server.queries accounts by admission weight — a
// 3-source batch counts 3, the same units the gate charges — and the
// engine ticks its per-source and per-batch counters.
func TestBatchMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := New(Config{
		Graph:   graph.PaperExample(),
		Params:  core.Params{Iterations: 50, Seed: 1},
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec, body := post(t, s, "/batch/singlesource", `{"sources":[0,3,5]}`); rec.Code != http.StatusOK {
		t.Fatalf("batch: %d %v", rec.Code, body)
	}
	if got := reg.Counter("server.queries").Load(); got != 3 {
		t.Errorf("server.queries = %d, want 3 (batch weight, matching admission)", got)
	}
	if got := reg.Counter("engine.crashsim.queries").Load(); got != 3 {
		t.Errorf("engine.crashsim.queries = %d, want 3 (one per batched source)", got)
	}
	if got := reg.Counter("engine.crashsim.queries.multisource").Load(); got != 1 {
		t.Errorf("engine.crashsim.queries.multisource = %d, want 1", got)
	}
}
