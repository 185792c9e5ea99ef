// Command simserver serves SimRank queries over HTTP.
//
//	simserver -graph wiki.txt -addr :8080
//	simserver -profile hepth -scale 0.05 -algo sling -addr :8080
//
//	curl 'localhost:8080/singlesource?u=3&k=10'
//	curl 'localhost:8080/pair?u=3&v=17'
//	curl 'localhost:8080/topk?u=3&k=10'
//	curl -d '{"sources":[3,17,3],"k":10}' 'localhost:8080/batch/singlesource'
//	curl 'localhost:8080/stats'
//	curl 'localhost:8080/metrics'
//
// The backend is selected with -algo (crashsim, probesim, sling, reads,
// exact); index-based backends build their index at startup. Each query
// runs under a per-request deadline (-timeout), concurrent estimates
// are bounded by an admission gate (-max-inflight, weighted by batch
// size; excess queries get 429 + Retry-After; -max-batch caps batch
// length), /metrics reports query counts, latency histograms
// and Monte-Carlo work counters, -pprof mounts /debug/pprof/, and the
// process drains in-flight requests and exits cleanly on
// SIGINT/SIGTERM.
//
// Query results are cached in a sharded LRU (-cache-bytes, default
// 64 MiB; 0 disables) with singleflight coalescing, so repeated and
// concurrent identical queries cost one backend computation. Estimates
// are deterministic for a fixed seed, so cached results are exact.
// -cache-ttl adds an optional hard age bound on top of the
// graph-version invalidation. /health reports the live hit ratio,
// /stats and /metrics the full cache counters.
//
// With -index-dir set and an index-based backend (sling, reads,
// prsim), the
// server restarts warm: it looks for a snapshot of the dataset's index
// in that directory (internal/store format) and loads it instead of
// rebuilding, after verifying checksums and that the snapshot's graph
// version matches the dataset actually loaded. On a miss — no file, a
// corrupt file, a version or parameter mismatch — it rebuilds as usual
// and writes the snapshot through for the next restart. A loaded index
// is bit-identical to a rebuilt one (enforced by tests and
// crashsim -verify-index), so warm restarts change startup time only.
//
// -mmap upgrades the warm restart to zero-copy: the snapshot is mapped
// read-only (format v2) and the indexes serve straight out of the
// kernel page cache, so startup touches O(1) pages, N servers on one
// machine share one physical copy of the index, and -mmap-verify picks
// the checksum policy (section: hash each section the first time it is
// imported; eager: hash everything up front; none: trusted restart).
// A v1 or otherwise unmappable snapshot falls back to the copying
// loader, then to a rebuild. The startup line
// "index load: mode=... wall=... mapped_bytes=..." records which path
// ran; /metrics exports the same as store.mmap_opens,
// store.mapped_bytes and store.crc_deferred/crc_verified.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"crashsim"
	"crashsim/internal/core"
	"crashsim/internal/engine"
	"crashsim/internal/server"
	"crashsim/internal/store"
)

func main() {
	var (
		graphFile = flag.String("graph", "", "static edge-list file")
		profile   = flag.String("profile", "", "generate a dataset profile instead of reading a file")
		scale     = flag.Float64("scale", 0.05, "profile scale")
		addr      = flag.String("addr", ":8080", "listen address")
		algo      = flag.String("algo", "crashsim", "backend: "+strings.Join(engine.Names(), "|"))
		eps       = flag.Float64("eps", 0.025, "error bound ε")
		c         = flag.Float64("c", 0.6, "decay factor")
		iters     = flag.Int("iters", 2000, "Monte-Carlo iterations (0 = theory-derived)")
		seed      = flag.Uint64("seed", 42, "random seed")
		timeout   = flag.Duration("timeout", server.DefaultTimeout, "per-query estimation deadline (negative disables)")
		maxInFl   = flag.Int("max-inflight", server.DefaultMaxInFlight(),
			"max concurrent query estimates before 429, counting each batched source (negative disables admission control)")
		maxBatch = flag.Int("max-batch", 0,
			"max sources per /batch/singlesource request (default 128)")
		cacheBytes = flag.Int64("cache-bytes", 64<<20,
			"query-result cache capacity in bytes (0 disables caching); a single-source result takes 12 bytes per scored node, and one larger than a 16th of the capacity is not cached")
		cacheTTL = flag.Duration("cache-ttl", 0,
			"query-result cache entry lifetime (0 = no age bound; graph-version keying already prevents stale results)")
		pprofOn  = flag.Bool("pprof", false, "mount /debug/pprof/ (trusted ports only)")
		indexDir = flag.String("index-dir", "",
			"index snapshot directory: load the dataset's index from a snapshot instead of rebuilding, write one through after a rebuild (sling/reads/prsim backends)")
		useMmap = flag.Bool("mmap", false,
			"with -index-dir: serve the snapshot zero-copy from a read-only file mapping (page-cache backed, shared across processes) instead of decoding a heap copy")
		mmapVerify = flag.String("mmap-verify", "section",
			"mapped snapshot checksum policy: section (hash each section on first import), eager, or none (trusted restart)")
		hubFraction = flag.Float64("hub-fraction", 0,
			"prsim backend: fraction of nodes (by in-degree rank) indexed eagerly as hubs (0 = backend default 0.05)")
	)
	flag.Parse()

	g, err := load(*graphFile, *profile, *scale, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simserver: %v\n", err)
		os.Exit(1)
	}
	scfg := server.Config{
		Graph:       g,
		Algo:        *algo,
		Params:      core.Params{C: *c, Eps: *eps, Iterations: *iters, Seed: *seed},
		Timeout:     *timeout,
		MaxInFlight: *maxInFl,
		MaxBatch:    *maxBatch,
		CacheBytes:  *cacheBytes,
		CacheTTL:    *cacheTTL,
		EnablePprof: *pprofOn,
		HubFraction: *hubFraction,
	}
	if *indexDir != "" {
		policy, err := parseVerifyPolicy(*mmapVerify)
		if err != nil {
			fmt.Fprintf(os.Stderr, "simserver: %v\n", err)
			os.Exit(1)
		}
		spec := datasetSpec(*graphFile, *profile, *scale, *seed)
		if err := setupIndex(&scfg, g, *indexDir, spec, *useMmap, policy); err != nil {
			fmt.Fprintf(os.Stderr, "simserver: %v\n", err)
			os.Exit(1)
		}
	}
	srv, err := server.New(scfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simserver: %v\n", err)
		os.Exit(1)
	}
	log.Printf("serving SimRank queries on %s (algo: %s, graph: n=%d m=%d, query timeout: %v, max in-flight: %d, pprof: %t)",
		*addr, srv.Algo(), g.NumNodes(), g.NumEdges(), *timeout, *maxInFl, *pprofOn)
	log.Print("result cache: " + cacheDesc(*cacheBytes, *cacheTTL))
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      60 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		stop()
		log.Print("shutting down, draining in-flight requests")
		shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("shutdown: %v", err)
			os.Exit(1)
		}
		log.Print("bye")
	}
}

// cacheDesc renders the cache configuration for the startup log, so
// an operator can confirm the serving setup from the first lines of
// output.
func cacheDesc(bytes int64, ttl time.Duration) string {
	if bytes <= 0 {
		return "disabled (every query recomputes)"
	}
	d := fmt.Sprintf("%d MiB sharded LRU with request coalescing", bytes>>20)
	if bytes < 1<<20 {
		d = fmt.Sprintf("%d bytes sharded LRU with request coalescing", bytes)
	}
	if ttl > 0 {
		return fmt.Sprintf("%s, ttl %v", d, ttl)
	}
	return d + ", no ttl (graph-version invalidation only)"
}

// datasetSpec names the dataset for snapshot identity: the edge-list
// path, or the generator coordinates. The spec picks the snapshot
// file; the graph's content version inside it is what actually gets
// verified.
func datasetSpec(graphFile, profile string, scale float64, seed uint64) string {
	if graphFile != "" {
		return graphFile
	}
	return fmt.Sprintf("%s@%g/%d", profile, scale, seed)
}

// parseVerifyPolicy maps the -mmap-verify flag to a store policy.
func parseVerifyPolicy(s string) (store.VerifyPolicy, error) {
	switch s {
	case "section":
		return store.VerifyOnLoadSection, nil
	case "eager":
		return store.VerifyEager, nil
	case "none":
		return store.VerifyNone, nil
	default:
		return 0, fmt.Errorf("unknown -mmap-verify policy %q (want section, eager, or none)", s)
	}
}

// setupIndex implements the warm-restart path for index-based
// backends: map or load the dataset's snapshot from dir if present and
// valid, otherwise build the index now and write the snapshot through
// — in every case handing the prebuilt index to the server via Config,
// so server.New never builds twice. One startup line records which
// path ran: mode=mapped|copy|build, the load wall time, and the mapped
// byte count (0 unless mapped).
func setupIndex(scfg *server.Config, g *crashsim.Graph, dir, spec string, useMmap bool, policy store.VerifyPolicy) error {
	fam, ok := engine.LookupIndex(scfg.Algo)
	if !ok {
		log.Printf("index-dir: backend %q builds no persistent index; ignoring", scfg.Algo)
		return nil
	}
	ecfg := engine.Config{
		C: scfg.Params.C, Eps: scfg.Params.Eps, Delta: scfg.Params.Delta,
		Iterations: scfg.Params.Iterations, Workers: scfg.Params.Workers,
		Seed: scfg.Params.Seed, HubFraction: scfg.HubFraction,
	}
	// Whichever path below fills ecfg's index hands it to the server.
	defer func() {
		scfg.SlingIndex, scfg.ReadsIndex, scfg.PRSimIndex = ecfg.SlingIndex, ecfg.ReadsIndex, ecfg.PRSimIndex
	}()
	path := store.SnapshotPath(dir, spec, scfg.Algo)
	if useMmap && setupMapped(scfg.Algo, fam, &ecfg, g, path, policy) {
		return nil
	}
	loadStart := time.Now()
	if snap, err := store.Load(path); err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			log.Printf("index snapshot %s unusable (%v); rebuilding", path, err)
		}
	} else if err := fam.Import(snap, g, &ecfg); err != nil {
		log.Printf("index snapshot %s rejected (%v); rebuilding", path, err)
	} else {
		log.Printf("index load: mode=copy algo=%s wall=%v mapped_bytes=0 path=%s",
			scfg.Algo, time.Since(loadStart).Round(time.Millisecond), path)
		return nil
	}
	start := time.Now()
	snap := &store.Snapshot{
		Graph: g,
		Meta:  store.Meta{Dataset: spec, Tool: "simserver", CreatedUnix: time.Now().Unix()},
	}
	if err := fam.Build(context.Background(), g, &ecfg); err != nil {
		return fmt.Errorf("building %s index: %w", scfg.Algo, err)
	}
	fam.Export(ecfg, snap)
	log.Printf("index load: mode=build algo=%s wall=%v mapped_bytes=0 path=%s",
		scfg.Algo, time.Since(start).Round(time.Millisecond), path)
	if err := store.Write(path, snap); err != nil {
		// A failed write-through costs the next restart, not this one.
		log.Printf("index snapshot write-through failed: %v", err)
	} else {
		log.Printf("wrote index snapshot %s for the next restart", path)
	}
	return nil
}

// setupMapped attempts the zero-copy restart: map the snapshot and
// import the backend's index into ecfg aliasing the mapping (the
// import refuses a snapshot of another graph version). Returns false
// on any miss — the caller falls back to the copying loader, then to
// a rebuild. The Mapped handle is closed before returning; imported
// indexes hold their own mapping references until server shutdown.
func setupMapped(algo string, fam engine.IndexFamily, ecfg *engine.Config, g *crashsim.Graph, path string, policy store.VerifyPolicy) bool {
	start := time.Now()
	mp, err := store.OpenMapped(path, store.MapOptions{Verify: policy})
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			log.Printf("index snapshot %s not mappable (%v); trying the copying loader", path, err)
		}
		return false
	}
	defer mp.Close()
	if err := fam.Import(mp, g, ecfg); err != nil {
		log.Printf("index snapshot %s rejected (%v); trying the copying loader", path, err)
		return false
	}
	log.Printf("index load: mode=mapped algo=%s wall=%v mapped_bytes=%d crc=%s path=%s",
		algo, time.Since(start).Round(time.Millisecond), mp.MappedBytes(), policy, path)
	return true
}

func load(graphFile, profile string, scale float64, seed uint64) (*crashsim.Graph, error) {
	switch {
	case graphFile != "":
		f, err := os.Open(graphFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return crashsim.LoadGraph(f)
	case profile != "":
		p, err := crashsim.Dataset(profile)
		if err != nil {
			return nil, err
		}
		return crashsim.GenerateStatic(p, scale, seed)
	default:
		return nil, fmt.Errorf("need -graph or -profile")
	}
}
