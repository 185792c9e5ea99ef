// Command perfbench is the repository's end-to-end benchmark. One run
// generates one workload's inputs from a seed, sets the program up from
// those files, drives it for a fixed time, checks its outputs and prints
// one JSON result line:
//
//	go run . -workload hot-zipf -seed 1 -seconds 20 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics (run with no
// spans recorded); with -trace 1 it carries the per-layer metrics, timed
// from this package's own code around the calls into each layer's public
// functions. Nothing inside the program is instrumented. -definition
// prints the benchmark definition that BENCHMARK.json at the repository
// root must equal. README.md beside this file documents every workload
// and metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricDef declares one metric of the benchmark definition.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists the metrics a -trace 0 run reports, with the share of
// the parent's median by which each may worsen before a change counts
// as a regression.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_tail_ms", "ms", "lower", 0.25},
	{"throughput_qps", "1/s", "higher", 0.25},
	{"slo_ok_ratio", "ratio", "higher", 0.05},
	{"heap_mb", "MiB", "lower", 0.1},
}

// perLayer lists the metrics a -trace 1 run reports. A layer a workload
// does not reach reports 0.
var perLayer = []metricDef{
	{"server.handler_ms.single.p50", "ms", "lower", 0},
	{"server.handler_ms.single.p90", "ms", "lower", 0},
	{"server.handler_ms.topk.p50", "ms", "lower", 0},
	{"server.handler_ms.topk.p90", "ms", "lower", 0},
	{"server.handler_ms.batch.p50", "ms", "lower", 0},
	{"server.handler_ms.batch.p90", "ms", "lower", 0},
	{"server.self_ms.single", "ms", "lower", 0},
	{"server.self_ms.topk", "ms", "lower", 0},
	{"server.self_ms.batch", "ms", "lower", 0},
	{"server.unattributed_share", "ratio", "lower", 0},
	{"server.transport_ms", "ms", "lower", 0},
	{"server.shed", "count", "lower", 0},
	{"server.inflight_max", "count", "lower", 0},
	{"server.new_ms", "ms", "lower", 0},
	{"tracing.overhead_ms", "ms", "lower", 0},
	{"load.lateness_ms", "ms", "lower", 0},
	{"load.queue_ms", "ms", "lower", 0},
	{"engine.hit_ms", "ms", "lower", 0},
	{"engine.miss_ms", "ms", "lower", 0},
	{"engine.self_ms", "ms", "lower", 0},
	{"cache.hit_ratio", "ratio", "higher", 0},
	{"cache.coalesced", "count", "lower", 0},
	{"cache.evictions", "count", "lower", 0},
	{"metrics.topk_ms", "ms", "lower", 0},
	{"core.revreach_ms", "ms", "lower", 0},
	{"core.freeze_ms", "ms", "lower", 0},
	{"core.estimate_ms", "ms", "lower", 0},
	{"core.topk_ms", "ms", "lower", 0},
	{"core.tree_support", "count", "lower", 0},
	{"core.walks_per_query", "count", "lower", 0},
	{"core.prune_ratio", "ratio", "higher", 0},
	{"core.crashsimt_ms", "ms", "lower", 0},
	{"temporal.evaluated_per_query", "count", "lower", 0},
	{"temporal.reuse_ratio", "ratio", "higher", 0},
	{"temporal.tree_patch_ratio", "ratio", "higher", 0},
	{"temporal.candtree_hit_ratio", "ratio", "higher", 0},
	{"temporal.frozen_reused", "count", "higher", 0},
	{"temporal.slice_ms", "ms", "lower", 0},
	{"temporal.replay_ms", "ms", "lower", 0},
	{"temporal.load_ms", "ms", "lower", 0},
	{"graph.load_ms", "ms", "lower", 0},
	{"store.load_ms", "ms", "lower", 0},
	{"store.import_ms", "ms", "lower", 0},
	{"reads.query_ms", "ms", "lower", 0},
	{"alloc_kb_per_query", "KiB", "lower", 0},
	{"gc.cycles", "count", "lower", 0},
	{"gc.pause_ms", "ms", "lower", 0},
}

// runSeconds is the measured window of one run in the definition.
const runSeconds = 20

// definition is the shape of BENCHMARK.json.
type definition struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func benchDefinition() definition {
	d := definition{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		d.Workloads = append(d.Workloads, workloadDef{w.name, w.why})
	}
	return d
}

// writeDefinition prints the definition as BENCHMARK.json holds it.
func writeDefinition(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(benchDefinition())
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload run receives.
type env struct {
	seed    uint64
	window  time.Duration
	trace   bool
	dir     string // directory for this run's generated inputs
	nproc   int
	metrics map[string]float64
}

func (e *env) set(name string, v float64) { e.metrics[name] = v }

// logf prints one line of the human-readable report.
func (e *env) logf(format string, args ...any) { fmt.Printf("# "+format+"\n", args...) }

func main() {
	var (
		name    = flag.String("workload", "", "workload name (see -definition)")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Int("seconds", runSeconds, "measured window in seconds")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
		def     = flag.Bool("definition", false, "print the benchmark definition (BENCHMARK.json) and exit")
	)
	flag.Parse()
	if *def {
		if err := writeDefinition(os.Stdout); err != nil {
			fail(err)
		}
		return
	}
	res, err := run(*name, *seed, *seconds, *trace == 1)
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func run(name string, seed uint64, seconds int, trace bool) (*result, error) {
	w, ok := workloadByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return nil, fmt.Errorf("seconds must be >= 1, got %d", seconds)
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	// Inputs live under the checkout's build directory and go away with
	// the run; the snapshot alone is ~100 MiB.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "inputs-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	dir, err = filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	e := &env{
		seed: seed, window: time.Duration(seconds) * time.Second, trace: trace,
		dir: dir, nproc: nproc, metrics: map[string]float64{},
	}
	e.logf("perfbench workload=%s seed=%d seconds=%d trace=%t", name, seed, seconds, trace)
	e.logf("nproc=%d GOMAXPROCS=%d go=%s", nproc, runtime.GOMAXPROCS(0), runtime.Version())
	o, err := w.run(e)
	if err != nil {
		return nil, err
	}
	if o.tally.attempted < 1 {
		return nil, errors.New("no request was attempted in the window")
	}
	if !trace {
		o.endToEnd(e, w)
	}
	e.set("alloc_kb_per_query", float64(o.allocated)/1024/float64(o.tally.attempted))
	for _, c := range o.checkErrs {
		e.logf("output check failed: %v", c)
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	res := &result{
		Correct:   len(o.checkErrs) == 0,
		Attempted: o.tally.attempted,
		Failed:    o.tally.failed(),
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		v := e.metrics[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", d.Name)
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
		e.logf("%-32s %14.6g %s", d.Name, v, d.Unit)
	}
	return res, nil
}

// outcome is what a workload hands back for reporting.
type outcome struct {
	tally     tally
	checkErrs []error
	setups    []time.Duration
	latencies []time.Duration // successful requests only
	sloOK     int             // successful requests within the limit
	wall      time.Duration   // timed wall time, first send to last reply
	heapBytes uint64          // heap in use after set-up and a forced GC
	allocated uint64          // bytes allocated in the timed window
}

// endToEnd derives the end-to-end metrics from a run's outcome and
// prints each latency percentile its sample count supports.
func (o *outcome) endToEnd(e *env, w *workload) {
	e.set("setup_s", quantileMs(o.setups, 0.5)/1e3)
	lat := durMs(o.latencies)
	sort.Float64s(lat)
	n := len(lat)
	qs := []float64{0.5, 0.75, 0.9, 0.99}
	for _, q := range qs {
		if supported(n, q) {
			e.logf("latency p%g = %.3f ms (%d samples, %d beyond)", q*100, percentile(lat, q), n, beyond(n, q))
		}
	}
	if hq, ok := highestSupported(n, qs); !ok || hq < w.tailQ {
		e.logf("warning: %d samples support no percentile up to the p%g tail with %d beyond it", n, w.tailQ*100, minBeyond)
	}
	e.set("latency_p50_ms", percentile(lat, 0.5))
	e.set("latency_tail_ms", percentile(lat, w.tailQ))
	e.set("throughput_qps", float64(o.tally.ok)/o.wall.Seconds())
	e.set("slo_ok_ratio", float64(o.sloOK)/float64(o.tally.attempted))
	e.set("heap_mb", float64(o.heapBytes)/(1<<20))
	e.logf("attempted=%d ok=%d shed=%d status=%d transport=%d wrong=%d failed_ratio=%g limit=%v",
		o.tally.attempted, o.tally.ok, o.tally.shed, o.tally.status, o.tally.transport, o.tally.wrong, o.tally.failedRatio(), w.limit)
}

func durMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}
