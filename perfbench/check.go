package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync"

	"crashsim/internal/core"
	"crashsim/internal/engine"
	"crashsim/internal/graph"
	"crashsim/internal/load"
	"crashsim/internal/metrics"
)

// row is one ranked result entry of a response.
type row struct {
	Node  int64   `json:"node"`
	Score float64 `json:"score"`
}

type listBody struct {
	Source  *int64 `json:"source"`
	K       int    `json:"k"`
	Results []row  `json:"results"`
}

type batchBody struct {
	K     int `json:"k"`
	Items []struct {
		Source  int64  `json:"source"`
		Results []row  `json:"results"`
		Error   string `json:"error"`
	} `json:"items"`
}

// validateBody checks a 2xx response against the request it answers:
// the echoed source and k, and for every result list a ranking the
// server could have produced on an n-node graph.
func validateBody(body []byte, r request, k, n int) error {
	lists, err := parseBody(body, r, k)
	if err != nil {
		return err
	}
	for i, rows := range lists {
		if err := checkRanked(rows, r.sources[i], k, n); err != nil {
			return fmt.Errorf("source %d: %w", r.sources[i], err)
		}
	}
	return nil
}

// parseBody decodes a response into one result list per request source.
func parseBody(body []byte, r request, k int) ([][]row, error) {
	if r.kind != load.KindBatch {
		var b listBody
		if err := json.Unmarshal(body, &b); err != nil {
			return nil, fmt.Errorf("bad body: %w", err)
		}
		if b.Source == nil || *b.Source != int64(r.sources[0]) {
			return nil, fmt.Errorf("response is not for source %d", r.sources[0])
		}
		if b.K != k {
			return nil, fmt.Errorf("response k %d, asked %d", b.K, k)
		}
		return [][]row{b.Results}, nil
	}
	var b batchBody
	if err := json.Unmarshal(body, &b); err != nil {
		return nil, fmt.Errorf("bad body: %w", err)
	}
	if b.K != k || len(b.Items) != len(r.sources) {
		return nil, fmt.Errorf("batch response k %d with %d items, asked k %d for %d sources", b.K, len(b.Items), k, len(r.sources))
	}
	out := make([][]row, len(b.Items))
	for i, it := range b.Items {
		if it.Source != int64(r.sources[i]) || it.Error != "" {
			return nil, fmt.Errorf("batch item %d: source %d, error %q", i, it.Source, it.Error)
		}
		out[i] = it.Results
	}
	return out, nil
}

// checkRanked checks one result list: at most k distinct in-range nodes
// other than the source, scores in [0,1], ranked by descending score
// with ties broken by ascending node.
func checkRanked(rows []row, u graph.NodeID, k, n int) error {
	if len(rows) > k {
		return fmt.Errorf("%d results for k=%d", len(rows), k)
	}
	seen := make(map[int64]bool, len(rows))
	for i, r := range rows {
		switch {
		case r.Node < 0 || r.Node >= int64(n):
			return fmt.Errorf("node %d out of range", r.Node)
		case r.Node == int64(u):
			return fmt.Errorf("source ranked as its own result")
		case seen[r.Node]:
			return fmt.Errorf("node %d listed twice", r.Node)
		case math.IsNaN(r.Score) || r.Score < 0 || r.Score > 1:
			return fmt.Errorf("score %g outside [0,1]", r.Score)
		}
		seen[r.Node] = true
		if i > 0 {
			p := rows[i-1]
			if p.Score < r.Score || (p.Score == r.Score && p.Node > r.Node) {
				return fmt.Errorf("results %d and %d out of rank order", i-1, i)
			}
		}
	}
	return nil
}

// sameRows reports the first difference between served and expected
// result lists; scores must match bit for bit.
func sameRows(got, want []row) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, expected %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("result %d is %+v, expected %+v", i, got[i], want[i])
		}
	}
	return nil
}

// rankedRows is the top-k list the server's single-source handler makes
// from a score map.
func rankedRows(scores core.Scores, u graph.NodeID, k int) []row {
	top := metrics.TopK(scores, u, k)
	out := make([]row, len(top))
	for i, v := range top {
		out[i] = row{int64(v), scores[v]}
	}
	return out
}

// checkSamples is how many served requests of each kind the deep check
// recomputes.
const checkSamples = 2

// deepCheck recomputes a fixed sample of served answers on a freshly
// built, uncached estimator with the same seed: the first checkSamples
// successful requests of each kind in stream order. On the snapshot
// workload it also compares the loaded index's full score maps with the
// fresh build's.
func deepCheck(s *servingSpec, in *servingInputs, l *live, p *phase) []error {
	ctx := context.Background()
	fresh, err := engine.New(ctx, s.algo, in.g, s.engineConfig())
	if err != nil {
		return []error{fmt.Errorf("building the reference estimator: %w", err)}
	}
	type job struct {
		idx   int
		lists [][]row
	}
	var jobs []job
	taken := map[load.Kind]int{}
	for i := range p.samples {
		smp, r := &p.samples[i], p.reqs[i]
		if smp.err != nil || smp.status != 200 || taken[r.kind] == checkSamples {
			continue
		}
		lists, err := parseBody(smp.body, r, queryK)
		if err != nil {
			continue // counted as a wrong output already
		}
		taken[r.kind]++
		jobs = append(jobs, job{i, lists})
	}
	var (
		mu   sync.Mutex
		errs []error
		wg   sync.WaitGroup
		sem  = make(chan struct{}, runtime.GOMAXPROCS(0))
	)
	report := func(err error) {
		mu.Lock()
		errs = append(errs, err)
		mu.Unlock()
	}
	for _, j := range jobs {
		for si, u := range p.reqs[j.idx].sources {
			wg.Add(1)
			sem <- struct{}{}
			go func(kind load.Kind, u graph.NodeID, got []row) {
				defer wg.Done()
				defer func() { <-sem }()
				if err := checkOne(ctx, fresh, l, kind, u, got); err != nil {
					report(fmt.Errorf("%v source %d: %w", kind, u, err))
				}
			}(p.reqs[j.idx].kind, u, j.lists[si])
		}
	}
	wg.Wait()
	return errs
}

// checkOne compares one served result list with the fresh estimator's.
func checkOne(ctx context.Context, fresh engine.Estimator, l *live, kind load.Kind, u graph.NodeID, got []row) error {
	if kind == load.KindTopK {
		top, err := engine.TopK(ctx, fresh, u, queryK)
		if err != nil {
			return err
		}
		want := make([]row, len(top))
		for i, t := range top {
			want[i] = row{int64(t.Node), t.Score}
		}
		return sameRows(got, want)
	}
	scores, err := fresh.SingleSource(ctx, u, nil)
	if err != nil {
		return err
	}
	if err := sameRows(got, rankedRows(scores, u, queryK)); err != nil {
		return err
	}
	if l.ix == nil {
		return nil
	}
	loaded, err := l.ix.SingleSourceCtx(ctx, u)
	if err != nil {
		return err
	}
	if len(loaded) != len(scores) {
		return fmt.Errorf("loaded index scores %d nodes, fresh build %d", len(loaded), len(scores))
	}
	for v, x := range scores {
		if y, ok := loaded[v]; !ok || y != x {
			return fmt.Errorf("loaded index scores node %d as %g, fresh build %g", v, y, x)
		}
	}
	return nil
}
