// Command gendata emits synthetic dataset files in the formats the rest
// of the tooling reads: static edge lists and temporal edge lists.
//
// Dataset profiles (Table III stand-ins):
//
//	gendata -profile wiki-vote -scale 0.1 -o wiki.txt
//	gendata -profile as-733 -scale 0.05 -temporal -snapshots 100 -o as.tgraph
//
// Raw random-graph models:
//
//	gendata -model er -nodes 1000 -edges 5000 -o er.txt
//	gendata -model ba -nodes 1000 -k 4 -directed=false -o ba.txt
//	gendata -model chunglu -nodes 1000 -edges 8000 -exponent 2.1 -o cl.txt
//	gendata -model smallworld -nodes 1000 -k 3 -beta 0.1 -o sw.txt
//
// With -save-index, gendata additionally builds a SimRank index over
// the generated static graph and writes a graph+index snapshot
// (internal/store format) that simserver -index-dir and
// crashsim -load-index consume:
//
//	gendata -profile hepth -scale 0.05 -save-index hepth.snap -index-algo sling
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"crashsim"
	"crashsim/internal/engine"
	"crashsim/internal/gen"
	"crashsim/internal/graph"
	"crashsim/internal/store"
	"crashsim/internal/temporal"
)

func main() {
	var (
		profile   = flag.String("profile", "", "dataset profile: as-733, as-caida, wiki-vote, hepth, hepph")
		model     = flag.String("model", "", "raw model: er, ba, chunglu, smallworld (alternative to -profile)")
		nodes     = flag.Int("nodes", 1000, "node count (raw models)")
		edges     = flag.Int("edges", 5000, "edge count (er, chunglu)")
		k         = flag.Int("k", 4, "attachment/neighbor parameter (ba, smallworld)")
		beta      = flag.Float64("beta", 0.1, "rewiring probability (smallworld)")
		exponent  = flag.Float64("exponent", 2.1, "power-law exponent (chunglu)")
		directed  = flag.Bool("directed", true, "direction (raw models; smallworld is always undirected)")
		scale     = flag.Float64("scale", 0.05, "profile scale (1.0 = paper-published size)")
		temporalF = flag.Bool("temporal", false, "emit a temporal history instead of one static snapshot")
		snapshots = flag.Int("snapshots", 0, "snapshot count (profile: override; raw model: enables churn)")
		churn     = flag.Float64("churn", 0.01, "per-transition edge churn rate (raw temporal models)")
		active    = flag.Float64("active", 1.0, "fraction of transitions carrying churn")
		seed      = flag.Uint64("seed", 42, "generator seed")
		out       = flag.String("o", "", "output file (default stdout)")
		saveIndex = flag.String("save-index", "",
			"also build an index over the generated static graph and write a graph+index snapshot here")
		indexAlgo = flag.String("index-algo", "sling", "index family for -save-index: "+strings.Join(engine.IndexNames(), ", "))
	)
	flag.Parse()
	if *saveIndex != "" && *temporalF {
		fatal(fmt.Errorf("-save-index applies to static output only"))
	}

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}

	var err error
	switch {
	case *profile != "" && *model != "":
		err = fmt.Errorf("-profile and -model are mutually exclusive")
	case *model != "":
		err = runModel(w, *model, *nodes, *edges, *k, *beta, *exponent, *directed,
			*temporalF, *snapshots, *churn, *active, *seed, *saveIndex, *indexAlgo)
	case *profile != "":
		err = runProfile(w, *profile, *scale, *temporalF, *snapshots, *seed, *saveIndex, *indexAlgo)
	default:
		err = fmt.Errorf("need -profile or -model")
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "gendata: %v\n", err)
	os.Exit(1)
}

func runProfile(w io.Writer, profile string, scale float64, temporalOut bool, snapshots int, seed uint64, snapPath, indexAlgo string) error {
	p, err := crashsim.Dataset(profile)
	if err != nil {
		return err
	}
	if temporalOut {
		tg, err := crashsim.GenerateTemporal(p, scale, snapshots, seed)
		if err != nil {
			return err
		}
		return crashsim.SaveTemporal(w, tg)
	}
	g, err := crashsim.GenerateStatic(p, scale, seed)
	if err != nil {
		return err
	}
	if err := crashsim.SaveGraph(w, g); err != nil {
		return err
	}
	return saveSnapshot(g, snapPath, indexAlgo, fmt.Sprintf("%s@%g/%d", profile, scale, seed), seed)
}

// saveSnapshot builds the requested index over g with the engine's
// default parameters (and the generator seed) and writes a graph+index
// snapshot — the artifact simserver -index-dir and crashsim -load-index
// consume. A consumer wanting different index parameters rebuilds; the
// snapshot records the ones used.
func saveSnapshot(g *graph.Graph, path, algo, spec string, seed uint64) error {
	if path == "" {
		return nil
	}
	fam, ok := engine.LookupIndex(algo)
	if !ok {
		return fmt.Errorf("unknown -index-algo %q (want %s)", algo, strings.Join(engine.IndexNames(), ", "))
	}
	ecfg := engine.Config{Seed: seed}
	snap := &store.Snapshot{
		Graph: g,
		Meta:  store.Meta{Dataset: spec, Tool: "gendata", CreatedUnix: time.Now().Unix()},
	}
	start := time.Now()
	if err := fam.Build(context.Background(), g, &ecfg); err != nil {
		return err
	}
	fam.Export(ecfg, snap)
	fmt.Fprintf(os.Stderr, "gendata: built %s index in %v\n", algo, time.Since(start).Round(time.Millisecond))
	if err := store.Write(path, snap); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "gendata: wrote snapshot %s\n", path)
	return nil
}

func runModel(w io.Writer, model string, nodes, edges, k int, beta, exponent float64,
	directed, temporalOut bool, snapshots int, churn, active float64, seed uint64,
	snapPath, indexAlgo string) error {
	var (
		es  []graph.Edge
		err error
	)
	switch model {
	case "er":
		es, err = gen.ErdosRenyi(nodes, edges, directed, seed)
	case "ba":
		es, err = gen.PreferentialAttachment(nodes, k, directed, seed)
	case "chunglu":
		es, err = gen.ChungLu(nodes, edges, exponent, directed, seed)
	case "smallworld":
		directed = false
		es, err = gen.SmallWorld(nodes, k, beta, seed)
	default:
		return fmt.Errorf("unknown model %q (want er, ba, chunglu, smallworld)", model)
	}
	if err != nil {
		return err
	}
	if temporalOut {
		if snapshots < 1 {
			return fmt.Errorf("temporal output needs -snapshots >= 1")
		}
		tg, err := gen.Churn(nodes, directed, es, gen.ChurnOptions{
			Snapshots:      snapshots,
			AddRate:        churn,
			DelRate:        churn,
			ActiveFraction: active,
			Seed:           seed + 1,
		})
		if err != nil {
			return err
		}
		return temporal.Write(w, tg)
	}
	g, err := gen.BuildStatic(nodes, directed, es)
	if err != nil {
		return err
	}
	if err := graph.WriteEdgeList(w, g); err != nil {
		return err
	}
	return saveSnapshot(g, snapPath, indexAlgo, fmt.Sprintf("%s/n%d/%d", model, nodes, seed), seed)
}
