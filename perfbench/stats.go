package main

import (
	"math"
	"net/http"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: fewer make the percentile a handful of extreme values.
const minBeyond = 10

// beyond returns how many of n samples lie above their q-quantile.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)-1e-9))
}

// supported reports whether n samples leave at least minBeyond samples
// beyond their q-quantile.
func supported(n int, q float64) bool { return beyond(n, q) >= minBeyond }

// highestSupported returns the highest quantile of qs that n samples
// support, and false when none is.
func highestSupported(n int, qs []float64) (float64, bool) {
	best, ok := 0.0, false
	for _, q := range qs {
		if supported(n, q) && q > best {
			best, ok = q, true
		}
	}
	return best, ok
}

// percentile interpolates the q-quantile of sorted values linearly
// between the closest ranks. It returns 0 for no values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// quantileMs returns the q-quantile of ds in milliseconds.
func quantileMs(ds []time.Duration, q float64) float64 {
	ms := durMs(ds)
	sort.Float64s(ms)
	return percentile(ms, q)
}

// meanMs returns the mean of ds in milliseconds, 0 for none.
func meanMs(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum) / 1e6 / float64(len(ds))
}

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// interval is one span, as offsets from a common origin.
type interval struct{ start, end time.Duration }

// selfTime returns the parent's duration minus the part of it that the
// children cover. Overlapping children count once; the parts of a child
// outside the parent do not count.
func selfTime(parent interval, children []interval) time.Duration {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		c.start = max(c.start, parent.start)
		c.end = min(c.end, parent.end)
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	covered := time.Duration(0)
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			cur.end = max(cur.end, c.end)
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if len(cs) > 0 {
		covered += cur.end - cur.start
	}
	return parent.end - parent.start - covered
}

// outcomeKind classifies one attempted request.
type outcomeKind int

const (
	outOK        outcomeKind = iota
	outShed                  // 429 from admission control
	outStatus                // any other non-2xx status
	outTransport             // no HTTP response at all
	outWrong                 // 2xx whose body failed the output check
)

// classify maps what a request returned to its outcome; a transport
// error wins over the status, and the body is judged only for a 2xx.
func classify(status int, transportErr, checkErr error) outcomeKind {
	switch {
	case transportErr != nil:
		return outTransport
	case status == http.StatusTooManyRequests:
		return outShed
	case status < 200 || status > 299:
		return outStatus
	case checkErr != nil:
		return outWrong
	default:
		return outOK
	}
}

// tally counts attempted requests by outcome; each request counts once.
type tally struct {
	attempted, ok, shed, status, transport, wrong int
}

func (t *tally) add(k outcomeKind) {
	t.attempted++
	switch k {
	case outOK:
		t.ok++
	case outShed:
		t.shed++
	case outStatus:
		t.status++
	case outTransport:
		t.transport++
	case outWrong:
		t.wrong++
	}
}

func (t tally) failed() int { return t.attempted - t.ok }

// failedRatio is the share of attempted requests that failed.
func (t tally) failedRatio() float64 { return ratio(float64(t.failed()), float64(t.attempted)) }
