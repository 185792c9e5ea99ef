package engine

import (
	"context"
	"fmt"
	"sort"

	"crashsim/internal/graph"
	"crashsim/internal/prsim"
	"crashsim/internal/reads"
	"crashsim/internal/sling"
	"crashsim/internal/store"
)

// Index families. The sling, reads and prsim backends answer from an
// index that New either builds or takes ready-made from Config, where
// a caller puts one it loaded from a store snapshot. indexFamilies is
// the one place that tells the three apart; the commands and the bench
// harness reach every family through an IndexFamily.

// IndexSource is a loaded snapshot an index is imported from: a
// decoded *store.Snapshot or a zero-copy *store.Mapped.
type IndexSource interface {
	ImportSling(g *graph.Graph) (*sling.Index, error)
	ImportReads(g *graph.Graph) (*reads.Index, error)
	ImportPRSim(g *graph.Graph) (*prsim.Index, error)
}

// IndexFamily is how one index-based backend's index is built into a
// Config, written into a snapshot and read back out of one.
type IndexFamily struct {
	// Build builds the index the backend's New would build over g for
	// cfg and stores it in cfg, replacing any index cfg carried.
	Build func(ctx context.Context, g *graph.Graph, cfg *Config) error
	// Export writes the index cfg carries into its snapshot section.
	Export func(cfg Config, snap *store.Snapshot)
	// Import binds the index in src to g and stores it in cfg. An index
	// imported from a *store.Mapped holds its own reference to the
	// mapping, so the Mapped handle may be closed right after.
	Import func(src IndexSource, g *graph.Graph, cfg *Config) error
	// Adopt sets cfg's build options to those the index it carries was
	// built with, so New accepts that index whatever cfg asked for.
	Adopt func(cfg *Config)
	// Close releases the index cfg carries; for a mapped import that
	// drops its reference to the mapping.
	Close func(cfg Config) error

	// preloaded vets the index cfg carries: ok is false when it carries
	// none, err non-nil when it was built on another graph or with
	// other build options than cfg implies.
	preloaded func(cfg Config, g *graph.Graph) (ok bool, err error)
	// serve wraps the index cfg carries as the backend's Estimator.
	serve func(g *graph.Graph, cfg Config) Estimator
}

var indexFamilies = map[string]IndexFamily{
	"sling": {
		Build: func(ctx context.Context, g *graph.Graph, cfg *Config) (err error) {
			cfg.SlingIndex, err = sling.BuildCtx(ctx, g, cfg.SlingOptions())
			return err
		},
		Export: func(cfg Config, snap *store.Snapshot) {
			p := cfg.SlingIndex.Export()
			snap.Sling = &p
		},
		Import: func(src IndexSource, g *graph.Graph, cfg *Config) (err error) {
			cfg.SlingIndex, err = src.ImportSling(g)
			return err
		},
		Adopt: func(cfg *Config) {
			o := cfg.SlingIndex.Options()
			cfg.C, cfg.Eps, cfg.Seed = o.C, o.Eps, o.Seed
			cfg.SlingDSamples = o.DSamples
		},
		Close: func(cfg Config) error { return cfg.SlingIndex.Close() },
		preloaded: func(cfg Config, g *graph.Graph) (bool, error) {
			ix := cfg.SlingIndex
			if ix == nil {
				return false, nil
			}
			want, have := cfg.SlingOptions().WithDefaults(), ix.Options()
			want.Workers, have.Workers = 0, 0
			return true, checkPreload("sling", ix.Graph().Version(), g.Version(), want, have)
		},
		serve: func(g *graph.Graph, cfg Config) Estimator {
			return &indexEstimator[*sling.Index]{"sling", g, cfg.SlingIndex}
		},
	},
	"reads": {
		Build: func(ctx context.Context, g *graph.Graph, cfg *Config) (err error) {
			cfg.ReadsIndex, err = BuildReadsIndex(ctx, g, *cfg)
			return err
		},
		Export: func(cfg Config, snap *store.Snapshot) {
			p := cfg.ReadsIndex.Export()
			snap.Reads = &p
		},
		Import: func(src IndexSource, g *graph.Graph, cfg *Config) (err error) {
			cfg.ReadsIndex, err = src.ImportReads(g)
			return err
		},
		Adopt: func(cfg *Config) {
			o := cfg.ReadsIndex.Options()
			cfg.C, cfg.Seed = o.C, o.Seed
			cfg.ReadsR, cfg.ReadsRQ = o.R, o.RQ
		},
		Close: func(cfg Config) error { return cfg.ReadsIndex.Close() },
		preloaded: func(cfg Config, g *graph.Graph) (bool, error) {
			ix := cfg.ReadsIndex
			if ix == nil {
				return false, nil
			}
			want, have := cfg.ReadsOptions().WithDefaults(), ix.Options()
			want.Workers, have.Workers = 0, 0
			return true, checkPreload("reads", ix.SourceVersion(), g.Version(), want, have)
		},
		serve: func(g *graph.Graph, cfg Config) Estimator {
			return &indexEstimator[*reads.Index]{"reads", g, cfg.ReadsIndex}
		},
	},
	"prsim": {
		Build: func(ctx context.Context, g *graph.Graph, cfg *Config) (err error) {
			cfg.PRSimIndex, err = prsim.BuildCtx(ctx, g, cfg.PRSimOptions())
			return err
		},
		Export: func(cfg Config, snap *store.Snapshot) {
			p := cfg.PRSimIndex.Export()
			snap.PRSim = &p
		},
		Import: func(src IndexSource, g *graph.Graph, cfg *Config) (err error) {
			cfg.PRSimIndex, err = src.ImportPRSim(g)
			return err
		},
		Adopt: func(cfg *Config) {
			o := cfg.PRSimIndex.Options()
			cfg.C, cfg.Eps, cfg.Delta, cfg.Seed = o.C, o.Eps, o.Delta, o.Seed
			cfg.Iterations, cfg.HubFraction, cfg.PRSimDSamples = o.Iterations, o.HubFraction, o.DSamples
		},
		Close: func(cfg Config) error { return cfg.PRSimIndex.Close() },
		preloaded: func(cfg Config, g *graph.Graph) (bool, error) {
			ix := cfg.PRSimIndex
			if ix == nil {
				return false, nil
			}
			want, have := cfg.PRSimOptions().WithDefaults(), ix.Options()
			want.Workers, have.Workers = 0, 0
			return true, checkPreload("prsim", ix.Graph().Version(), g.Version(), want, have)
		},
		serve: func(g *graph.Graph, cfg Config) Estimator {
			return prsimEstimator{&indexEstimator[*prsim.Index]{"prsim", g, cfg.PRSimIndex}}
		},
	},
}

func init() {
	for name, f := range indexFamilies {
		registry[name] = f.newEstimator
	}
}

// checkPreload refuses a preloaded index built on another graph
// version than the serving one, or with other build options than the
// Config asks for. Callers zero Workers on both sides: it is a runtime
// knob with no effect on the built index.
func checkPreload[O comparable](name string, built, serving uint64, want, have O) error {
	if built != serving {
		return fmt.Errorf("preloaded %s index built on graph %#x, serving graph is %#x", name, built, serving)
	}
	if want != have {
		return fmt.Errorf("preloaded %s index built with %+v, config asks for %+v", name, have, want)
	}
	return nil
}

// newEstimator is the family's Builder: it serves the index cfg
// carries once it passes the preload check, and builds one otherwise.
func (f IndexFamily) newEstimator(ctx context.Context, g *graph.Graph, cfg Config) (Estimator, error) {
	ok, err := f.preloaded(cfg, g)
	if err != nil {
		return nil, err
	}
	if !ok {
		if err := f.Build(ctx, g, &cfg); err != nil {
			return nil, err
		}
	}
	return f.serve(g, cfg), nil
}

// LookupIndex returns the named backend's index family; ok is false
// for a backend that keeps no index.
func LookupIndex(name string) (IndexFamily, bool) {
	f, ok := indexFamilies[name]
	return f, ok
}

// IndexNames returns the names of the backends that keep an index,
// sorted.
func IndexNames() []string {
	out := make([]string, 0, len(indexFamilies))
	for name := range indexFamilies {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// SlingOptions maps a Config to the SLING build options the sling
// backend uses.
func (cfg Config) SlingOptions() sling.Options {
	return sling.Options{
		C: cfg.C, Eps: cfg.Eps, DSamples: cfg.SlingDSamples,
		Workers: cfg.Workers, Seed: cfg.Seed,
	}
}

// ReadsOptions maps a Config to the READS build options the reads
// backend uses.
func (cfg Config) ReadsOptions() reads.Options {
	return reads.Options{
		C: cfg.C, R: cfg.ReadsR, RQ: cfg.ReadsRQ,
		Workers: cfg.Workers, Seed: cfg.Seed,
	}
}

// PRSimOptions maps a Config to the PRSim build options the prsim
// backend uses.
func (cfg Config) PRSimOptions() prsim.Options {
	return prsim.Options{
		C: cfg.C, Eps: cfg.Eps, Delta: cfg.Delta,
		HubFraction: cfg.HubFraction, Iterations: cfg.Iterations,
		DSamples: cfg.PRSimDSamples, Workers: cfg.Workers, Seed: cfg.Seed,
	}
}

// BuildReadsIndex builds the READS index the reads backend would build
// over g for cfg, over a private mutable copy of g bound to g's
// version.
func BuildReadsIndex(ctx context.Context, g *graph.Graph, cfg Config) (*reads.Index, error) {
	d := graph.NewDiGraph(g.NumNodes(), g.Directed())
	for _, e := range g.Edges() {
		if err := d.AddEdge(e.X, e.Y); err != nil {
			return nil, fmt.Errorf("copying graph: %w", err)
		}
	}
	ix, err := reads.BuildCtx(ctx, d, cfg.ReadsOptions())
	if err != nil {
		return nil, err
	}
	ix.BindSourceVersion(g.Version())
	return ix, nil
}
