package engine

import (
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"crashsim/internal/graph"
	"crashsim/internal/obs"
	"crashsim/internal/store"
)

func preloadGraph(t *testing.T) *graph.Graph {
	t.Helper()
	const n = 20
	b := graph.NewBuilder(n, true)
	for i := 0; i < n; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n))
		if j := (i*5 + 2) % n; j != i {
			b.AddEdge(graph.NodeID(i), graph.NodeID(j))
		}
	}
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func preloadConfig() Config {
	return Config{Seed: 11, SlingDSamples: 16, ReadsR: 8, ReadsRQ: 2, Metrics: obs.NewRegistry()}
}

// buildAll returns cfg carrying every index family's index built over g.
func buildAll(t *testing.T, g *graph.Graph, cfg Config) Config {
	t.Helper()
	for _, name := range IndexNames() {
		f, _ := LookupIndex(name)
		if err := f.Build(context.Background(), g, &cfg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	return cfg
}

// exportAll returns a snapshot of g carrying every index cfg holds.
func exportAll(g *graph.Graph, cfg Config) *store.Snapshot {
	snap := &store.Snapshot{Graph: g}
	for _, name := range IndexNames() {
		f, _ := LookupIndex(name)
		f.Export(cfg, snap)
	}
	return snap
}

// TestPreloadedIndexBitIdentical is the end-to-end restart equivalence
// guarantee: for every index-persisting backend, an estimator over an
// index that went through the full snapshot round trip (export, encode,
// decode, import) answers every SingleSource query bit-identically to
// an estimator that just built the index.
func TestPreloadedIndexBitIdentical(t *testing.T) {
	ctx := context.Background()
	g := preloadGraph(t)
	cfg := preloadConfig()

	built := buildAll(t, g, cfg)
	// Warm a few tail tables so the exported prsim payload carries lazy
	// entries too, not just the eager hubs.
	if _, err := built.PRSimIndex.SingleSource(0); err != nil {
		t.Fatal(err)
	}
	data, err := store.Encode(exportAll(g, built))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := store.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	preCfg := cfg
	for _, name := range IndexNames() {
		f, _ := LookupIndex(name)
		if err := f.Import(snap, g, &preCfg); err != nil {
			t.Fatal(err)
		}
	}

	for _, name := range []string{"sling", "reads", "prsim"} {
		built, err := New(ctx, name, g, cfg)
		if err != nil {
			t.Fatalf("%s: building fresh: %v", name, err)
		}
		loaded, err := New(ctx, name, g, preCfg)
		if err != nil {
			t.Fatalf("%s: constructing from preloaded index: %v", name, err)
		}
		for u := 0; u < g.NumNodes(); u++ {
			want, err := built.SingleSource(ctx, graph.NodeID(u), nil)
			if err != nil {
				t.Fatal(err)
			}
			have, err := loaded.SingleSource(ctx, graph.NodeID(u), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, have) {
				t.Fatalf("%s: SingleSource(%d) differs between built and loaded index", name, u)
			}
		}
	}
}

// TestPreloadedMappedIndexBitIdentical is the mmap flavour of the
// restart guarantee: estimators over indexes imported from a read-only
// file mapping (store.OpenMapped, arrays aliasing the page cache) must
// answer bit-identically to estimators that built the index in-process.
func TestPreloadedMappedIndexBitIdentical(t *testing.T) {
	ctx := context.Background()
	g := preloadGraph(t)
	cfg := preloadConfig()

	built := buildAll(t, g, cfg)
	if _, err := built.PRSimIndex.SingleSource(0); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "engine.snap")
	if err := store.Write(path, exportAll(g, built)); err != nil {
		t.Fatal(err)
	}
	for _, verify := range []store.VerifyPolicy{store.VerifyOnLoadSection, store.VerifyEager, store.VerifyNone} {
		t.Run(verify.String(), func(t *testing.T) {
			mp, err := store.OpenMapped(path, store.MapOptions{Verify: verify})
			if err != nil {
				t.Fatal(err)
			}
			defer mp.Close()
			preCfg := cfg
			for _, name := range IndexNames() {
				f, _ := LookupIndex(name)
				if err := f.Import(mp, g, &preCfg); err != nil {
					t.Fatal(err)
				}
				defer f.Close(preCfg)
			}
			for _, name := range []string{"sling", "reads", "prsim"} {
				built, err := New(ctx, name, g, cfg)
				if err != nil {
					t.Fatalf("%s: building fresh: %v", name, err)
				}
				mapped, err := New(ctx, name, g, preCfg)
				if err != nil {
					t.Fatalf("%s: constructing from mapped index: %v", name, err)
				}
				for u := 0; u < g.NumNodes(); u++ {
					want, err := built.SingleSource(ctx, graph.NodeID(u), nil)
					if err != nil {
						t.Fatal(err)
					}
					have, err := mapped.SingleSource(ctx, graph.NodeID(u), nil)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(want, have) {
						t.Fatalf("%s: SingleSource(%d) differs between built and mapped index", name, u)
					}
				}
			}
		})
	}
}

func TestPreloadRefusesWrongGraph(t *testing.T) {
	ctx := context.Background()
	g := preloadGraph(t)
	other := graph.NewBuilder(20, true).AddEdge(0, 1).AddEdge(1, 2).MustFreeze()
	cfg := buildAll(t, other, preloadConfig())
	for _, name := range []string{"sling", "reads", "prsim"} {
		if _, err := New(ctx, name, g, cfg); err == nil ||
			!strings.Contains(err.Error(), "serving graph") {
			t.Fatalf("%s: New accepted an index built on another graph (err=%v)", name, err)
		}
	}
}

func TestPreloadRefusesWrongOptions(t *testing.T) {
	ctx := context.Background()
	g := preloadGraph(t)
	cfg := buildAll(t, g, preloadConfig())
	mismatched := cfg
	mismatched.Seed = 999
	for _, name := range []string{"sling", "reads", "prsim"} {
		if _, err := New(ctx, name, g, mismatched); err == nil ||
			!strings.Contains(err.Error(), "config asks for") {
			t.Fatalf("%s: New accepted an index with mismatched options (err=%v)", name, err)
		}
		// Adopt takes the options the index was built with.
		adopted := mismatched
		f, _ := LookupIndex(name)
		f.Adopt(&adopted)
		if _, err := New(ctx, name, g, adopted); err != nil {
			t.Fatalf("%s: New refused the index after Adopt: %v", name, err)
		}
	}
	// Workers is a runtime knob: changing it must NOT invalidate an index.
	workers := cfg
	workers.Workers = 7
	for _, name := range []string{"sling", "reads", "prsim"} {
		if _, err := New(ctx, name, g, workers); err != nil {
			t.Fatalf("%s: Workers change invalidated a preloaded index: %v", name, err)
		}
	}
}
