package engine

import (
	"context"
	"errors"
	"time"

	"crashsim/internal/core"
	"crashsim/internal/graph"
	"crashsim/internal/obs"
)

// Per-backend serving metrics. engine.New wraps every Estimator it
// builds in a metering layer, so all consumers — the HTTP server, the
// CLIs, the bench harness — get query counts, error/cancellation
// counts and end-to-end latency histograms for free, named
//
//	engine.<backend>.queries             total queries (all ops; a batch counts one per source)
//	engine.<backend>.queries.<op>        per-op counts (singlesource, topk, pair, multisource)
//	engine.<backend>.errors              non-cancellation failures
//	engine.<backend>.canceled            context cancellations/deadlines
//	engine.<backend>.latency             latency histogram across all ops
//
// A multi-source batch adds its source count to queries (so the total
// stays "queries answered" whatever the transport), ticks
// queries.multisource once per batch, and records one latency
// observation for the whole batch.
//
// The wrapper preserves the inner estimator's capabilities (see
// mirror): it advertises TopKer/Pairer/MultiSourcer exactly when the
// wrapped backend does.
type backendMetrics struct {
	queries      *obs.Counter
	singleSource *obs.Counter
	topK         *obs.Counter
	pair         *obs.Counter
	multiSource  *obs.Counter
	errors       *obs.Counter
	canceled     *obs.Counter
	latency      *obs.Histogram
}

func newBackendMetrics(reg *obs.Registry, backend string) *backendMetrics {
	p := "engine." + backend + "."
	return &backendMetrics{
		queries:      reg.Counter(p + "queries"),
		singleSource: reg.Counter(p + "queries.singlesource"),
		topK:         reg.Counter(p + "queries.topk"),
		pair:         reg.Counter(p + "queries.pair"),
		multiSource:  reg.Counter(p + "queries.multisource"),
		errors:       reg.Counter(p + "errors"),
		canceled:     reg.Counter(p + "canceled"),
		latency:      reg.Histogram(p + "latency"),
	}
}

// done records one finished query: its latency always, plus an error
// or cancellation counter when it failed.
func (m *backendMetrics) done(start time.Time, err error) {
	m.latency.Since(start)
	if err == nil {
		return
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		m.canceled.Inc()
	} else {
		m.errors.Inc()
	}
}

// metered wraps an Estimator with per-backend metrics.
type metered struct {
	inner Estimator
	m     *backendMetrics
}

func (e *metered) Name() string { return e.inner.Name() }

func (e *metered) SingleSource(ctx context.Context, u graph.NodeID, omega []graph.NodeID) (core.Scores, error) {
	e.m.queries.Inc()
	e.m.singleSource.Inc()
	start := time.Now()
	s, err := e.inner.SingleSource(ctx, u, omega)
	e.m.done(start, err)
	return s, err
}

func (e *metered) topKThrough(ctx context.Context, u graph.NodeID, k int) ([]core.TopKResult, error) {
	e.m.queries.Inc()
	e.m.topK.Inc()
	start := time.Now()
	r, err := e.inner.(TopKer).TopK(ctx, u, k)
	e.m.done(start, err)
	return r, err
}

func (e *metered) pairThrough(ctx context.Context, u, v graph.NodeID) (float64, error) {
	e.m.queries.Inc()
	e.m.pair.Inc()
	start := time.Now()
	s, err := e.inner.(Pairer).Pair(ctx, u, v)
	e.m.done(start, err)
	return s, err
}

func (e *metered) multiSourceThrough(ctx context.Context, sources []graph.NodeID) ([]core.Scores, error) {
	e.m.queries.Add(uint64(len(sources)))
	e.m.multiSource.Inc()
	start := time.Now()
	r, err := e.inner.(MultiSourcer).MultiSource(ctx, sources)
	e.m.done(start, err)
	return r, err
}

// metered stores no ranked results: its ranked ops rank what its
// metered ops return, as RankedSingleSource and RankedMultiSource do
// for an unwrapped estimator.
func (e *metered) rankedSingleSource(ctx context.Context, u graph.NodeID, omega []graph.NodeID) (*Ranked, error) {
	s, err := e.SingleSource(ctx, u, omega)
	if err != nil {
		return nil, err
	}
	return newRanked(s, u), nil
}

func (e *metered) rankedMultiSource(ctx context.Context, sources []graph.NodeID) ([]*Ranked, error) {
	if _, ok := e.inner.(MultiSourcer); !ok {
		return rankEach(ctx, e, sources)
	}
	all, err := e.multiSourceThrough(ctx, sources)
	if err != nil {
		return nil, err
	}
	return rankAll(all, sources), nil
}
