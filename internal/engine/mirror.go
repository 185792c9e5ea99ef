package engine

import (
	"context"

	"crashsim/internal/core"
	"crashsim/internal/graph"
)

// forwarder is the core of a wrapping Estimator (the metering and the
// caching layer): Estimator itself, one forwarding method per optional
// interface, and the ranked single-source ops that RankedSingleSource
// and RankedMultiSource reach. mirror dresses a forwarder in exactly
// the optional interfaces its inner estimator implements, so a wrapper
// advertises TopKer, Pairer and MultiSourcer exactly when the wrapped
// backend does and the package-level TopK, Pair and MultiSource
// fallbacks behave the same with and without it. A forwarding method
// is only reachable through a type advertising its interface, so it
// may assume the inner estimator implements that interface.
type forwarder interface {
	Estimator
	topKThrough(ctx context.Context, u graph.NodeID, k int) ([]core.TopKResult, error)
	pairThrough(ctx context.Context, u, v graph.NodeID) (float64, error)
	multiSourceThrough(ctx context.Context, sources []graph.NodeID) ([]core.Scores, error)
	rankedSingleSource(ctx context.Context, u graph.NodeID, omega []graph.NodeID) (*Ranked, error)
	rankedMultiSource(ctx context.Context, sources []graph.NodeID) ([]*Ranked, error)
}

// mirror returns f advertising the optional interfaces inner
// implements.
func mirror(inner Estimator, f forwarder) Estimator {
	var mask int
	if _, ok := inner.(TopKer); ok {
		mask |= 1
	}
	if _, ok := inner.(Pairer); ok {
		mask |= 2
	}
	if _, ok := inner.(MultiSourcer); ok {
		mask |= 4
	}
	t, p, m := topKMethod{f}, pairMethod{f}, multiSourceMethod{f}
	switch mask {
	case 1:
		return withTopK{f, t}
	case 2:
		return withPair{f, p}
	case 3:
		return withTopKPair{f, t, p}
	case 4:
		return withMulti{f, m}
	case 5:
		return withTopKMulti{f, t, m}
	case 6:
		return withPairMulti{f, p, m}
	case 7:
		return withTopKPairMulti{f, t, p, m}
	default:
		return f
	}
}

// The seven capability combinations. The embedded forwarder supplies
// Name, SingleSource and the unexported ops; each method type adds one
// optional interface.
type (
	withTopK struct {
		forwarder
		topKMethod
	}
	withPair struct {
		forwarder
		pairMethod
	}
	withTopKPair struct {
		forwarder
		topKMethod
		pairMethod
	}
	withMulti struct {
		forwarder
		multiSourceMethod
	}
	withTopKMulti struct {
		forwarder
		topKMethod
		multiSourceMethod
	}
	withPairMulti struct {
		forwarder
		pairMethod
		multiSourceMethod
	}
	withTopKPairMulti struct {
		forwarder
		topKMethod
		pairMethod
		multiSourceMethod
	}
)

type topKMethod struct{ f forwarder }

func (m topKMethod) TopK(ctx context.Context, u graph.NodeID, k int) ([]core.TopKResult, error) {
	return m.f.topKThrough(ctx, u, k)
}

type pairMethod struct{ f forwarder }

func (m pairMethod) Pair(ctx context.Context, u, v graph.NodeID) (float64, error) {
	return m.f.pairThrough(ctx, u, v)
}

type multiSourceMethod struct{ f forwarder }

func (m multiSourceMethod) MultiSource(ctx context.Context, sources []graph.NodeID) ([]core.Scores, error) {
	return m.f.multiSourceThrough(ctx, sources)
}

// rankEach answers a batch for a forwarder whose inner estimator has
// no native batch mode: one ranked single-source query per source.
func rankEach(ctx context.Context, f forwarder, sources []graph.NodeID) ([]*Ranked, error) {
	out := make([]*Ranked, len(sources))
	for i, u := range sources {
		r, err := f.rankedSingleSource(ctx, u, nil)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}
