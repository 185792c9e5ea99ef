package server

import (
	"context"
	"net/http"
	"path/filepath"
	"testing"

	"crashsim/internal/core"
	"crashsim/internal/engine"
	"crashsim/internal/graph"
	"crashsim/internal/store"
)

// TestMetricsExposesStoreCounters serves a sling index imported from a
// mapped snapshot and checks /metrics surfaces the store instrumentation
// (mmap opens, the mapped-bytes gauge, deferred/verified CRC counters).
// The store registers on obs.Default, so Metrics is left nil here like
// a production simserver. Counter values are only loosely asserted —
// other tests sharing obs.Default may tick them — but the mapped-bytes
// gauge must cover this test's live mapping.
func TestMetricsExposesStoreCounters(t *testing.T) {
	ctx := context.Background()
	g := graph.PaperExample()
	p := core.Params{Iterations: 100, Seed: 1}
	ecfg := engine.Config{
		C: p.C, Eps: p.Eps, Delta: p.Delta,
		Iterations: p.Iterations, Workers: p.Workers, Seed: p.Seed,
	}
	sl, _ := engine.LookupIndex("sling")
	if err := sl.Build(ctx, g, &ecfg); err != nil {
		t.Fatal(err)
	}
	snap := &store.Snapshot{Graph: g}
	sl.Export(ecfg, snap)
	path := filepath.Join(t.TempDir(), "sling.snap")
	if err := store.Write(path, snap); err != nil {
		t.Fatal(err)
	}
	mp, err := store.OpenMapped(path, store.MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer mp.Close()
	slM, err := mp.ImportSling(g)
	if err != nil {
		t.Fatal(err)
	}
	defer slM.Close()

	s, err := New(Config{Graph: g, Algo: "sling", Params: p, SlingIndex: slM})
	if err != nil {
		t.Fatal(err)
	}
	if rec, body := get(t, s, "/singlesource?u=0"); rec.Code != http.StatusOK {
		t.Fatalf("mapped-index query: %d %v", rec.Code, body)
	}

	rec, body := get(t, s, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	counters := body["counters"].(map[string]any)
	for _, name := range []string{"store.mmap_opens", "store.crc_deferred", "store.crc_verified"} {
		if _, ok := counters[name]; !ok {
			t.Errorf("counter %q missing from /metrics snapshot", name)
		}
	}
	if got := counters["store.mmap_opens"].(float64); got < 1 {
		t.Errorf("store.mmap_opens = %v, want >= 1", got)
	}
	gauges := body["gauges"].(map[string]any)
	bytes, ok := gauges["store.mapped_bytes"].(float64)
	if !ok {
		t.Fatal("gauge store.mapped_bytes missing from /metrics snapshot")
	}
	if bytes < float64(mp.MappedBytes()) {
		t.Errorf("store.mapped_bytes = %v with a %d-byte mapping live", bytes, mp.MappedBytes())
	}
}
