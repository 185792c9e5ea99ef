package main

import (
	"bytes"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// nameRE is the rule for workload and metric names in BENCHMARK.json.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// unitRE is the rule for metric units in BENCHMARK.json.
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestBenchmarkJSONMatchesDefinition keeps BENCHMARK.json at the
// repository root equal to what -definition prints.
func TestBenchmarkJSONMatchesDefinition(t *testing.T) {
	have, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := writeDefinition(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(have, want.Bytes()) {
		t.Fatalf("BENCHMARK.json is stale; regenerate it with: go run . -definition > ../BENCHMARK.json")
	}
}

func TestDefinitionNamesAndBounds(t *testing.T) {
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q breaks the name rule", kind, n)
		}
		if seen[n] {
			t.Errorf("%s name %q is used twice", kind, n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range workloads {
		name("workload", w.name)
		if len(w.why) > 200 || strings.ContainsAny(w.why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (%d)", w.name, len(w.why))
		}
	}
	var setupBound, maxBound float64
	for _, m := range endToEnd {
		name("metric", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: bad unit %q", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: bound %g, better %q", m.Name, m.Bound, m.Better)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower is better")
			}
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s needs the largest bound: %g < %g", setupBound, maxBound)
	}
	for _, m := range perLayer {
		name("metric", m.Name)
		if !unitRE.MatchString(m.Unit) || m.Bound != 0 {
			t.Errorf("per-layer metric %s: unit %q, bound %g", m.Name, m.Unit, m.Bound)
		}
	}
	for _, bad := range []string{"", "-lead", "has space", "a/b", strings.Repeat("x", 65)} {
		if nameRE.MatchString(bad) {
			t.Errorf("name rule accepts %q", bad)
		}
	}
}

// TestWhyStatesLimitAndTail keeps each workload's one-line description
// in step with the latency limit and tail percentile the code uses.
func TestWhyStatesLimitAndTail(t *testing.T) {
	for _, w := range workloads {
		limit := fmt.Sprintf("limit %g ms", float64(w.limit)/float64(time.Millisecond))
		if w.limit >= time.Second {
			limit = fmt.Sprintf("limit %g s", w.limit.Seconds())
		}
		tail := fmt.Sprintf("Tail p%g", w.tailQ*100)
		if !strings.Contains(w.why, limit) || !strings.Contains(w.why, tail) {
			t.Errorf("workload %s: why %q should state %q and %q", w.name, w.why, limit, tail)
		}
	}
}
