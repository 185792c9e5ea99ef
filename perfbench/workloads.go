package main

import (
	"time"
)

// workload is one traffic mix the benchmark runs. README.md gives each
// one's full traffic description and the layer-to-metric map.
type workload struct {
	name string
	why  string // one line, as BENCHMARK.json carries it
	// limit is the latency a request must meet to count in slo_ok_ratio.
	limit time.Duration
	// tailQ is the percentile reported as latency_tail_ms: the highest
	// one that the workload's usual sample count supports with at least
	// minBeyond samples beyond it.
	tailQ float64
	// serving fixes an HTTP workload; nil for the library workload.
	serving *servingSpec
}

// run generates the workload's inputs from the seed and measures it.
func (w *workload) run(e *env) (*outcome, error) {
	if w.serving != nil {
		return runServing(e, w)
	}
	return runTemporal(e, w)
}

// Shared parameters of the HTTP workloads.
const (
	servingProfile = "as-caida"
	servingIters   = 100       // n_r of the crashsim backend
	estimatorSeed  = 42        // simserver's default -seed
	cacheBytes     = 256 << 20 // simserver's 64 MiB makes 4 MiB shards holding 3 results each; see README.md
	maxInFlight    = 8         // the server's weighted admission budget
	queryK         = 10
	batchSize      = 4
)

var workloads = []*workload{
	{
		name:  "hot-zipf",
		why:   "Open loop, Poisson 30/s, Zipf 1.1 over the 32 top-degree as-caida nodes, all cached: time sits in server, cache clone, rank and encode, not core. Tail p90, limit 100 ms.",
		limit: 100 * time.Millisecond,
		tailQ: 0.9,
		serving: &servingSpec{
			algo: "crashsim", poolSize: 32, zipfS: 1.1, rate: 30, warm: true, setupReps: 9,
		},
	},
	{
		name:  "cold-uniform",
		why:   "Closed loop, 1 caller, single and top-k only, uniform sources over the as-caida giant component, n_r 100: nearly every request misses the cache and pays revReach, freeze, walks. Tail p75, limit 3 s.",
		limit: 3 * time.Second,
		tailQ: 0.75,
		serving: &servingSpec{
			algo: "crashsim", noBatch: true, setupReps: 9,
		},
	},
	{
		name:  "temporal-trend",
		why:   "Library calls, 1 caller: CrashSim-T threshold then trend query per request over 16-snapshot windows of a churned 64-snapshot as-733, n_r 20. Tail p50, limit 3 s.",
		limit: 3 * time.Second,
		tailQ: 0.5,
	},
	{
		name:  "index-restart",
		why:   "Set-up restarts from a READS snapshot of as-caida (store.Load + ImportReads); open loop, Poisson 100/s, uniform sources: store and reads do the work. Tail p99, limit 50 ms.",
		limit: 50 * time.Millisecond,
		tailQ: 0.99,
		serving: &servingSpec{
			algo: "reads", rate: 100, snapshot: true, setupReps: 5,
		},
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}
