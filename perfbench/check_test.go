package main

import (
	"encoding/json"
	"strings"
	"testing"

	"crashsim/internal/graph"
	"crashsim/internal/load"
)

func listJSON(t *testing.T, source int64, rows []row) []byte {
	t.Helper()
	b, err := json.Marshal(map[string]any{"source": source, "k": queryK, "results": rows})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestValidBodiesPass(t *testing.T) {
	rows := []row{{4, 0.3}, {2, 0.1}, {7, 0.1}, {1, 0}}
	single := request{kind: load.KindSingle, sources: []graph.NodeID{3}}
	if err := validateBody(listJSON(t, 3, rows), single, queryK, 10); err != nil {
		t.Fatalf("valid list rejected: %v", err)
	}
	batch := request{kind: load.KindBatch, sources: []graph.NodeID{3, 5}}
	body := `{"k":10,"items":[{"source":3,"results":[{"node":4,"score":0.3}]},{"source":5,"results":[]}]}`
	if err := validateBody([]byte(body), batch, queryK, 10); err != nil {
		t.Fatalf("valid batch rejected: %v", err)
	}
}

func TestCorruptedResponsesFailTheCheck(t *testing.T) {
	single := request{kind: load.KindTopK, sources: []graph.NodeID{3}}
	good := []row{{4, 0.3}, {2, 0.1}, {7, 0.1}}
	for name, body := range map[string][]byte{
		"truncated":         listJSON(t, 3, good)[:20],
		"wrong source":      listJSON(t, 4, good),
		"source ranked":     listJSON(t, 3, []row{{3, 0.9}, {4, 0.3}}),
		"out of order":      listJSON(t, 3, []row{{2, 0.1}, {4, 0.3}}),
		"tie order":         listJSON(t, 3, []row{{7, 0.1}, {2, 0.1}}),
		"duplicate node":    listJSON(t, 3, []row{{4, 0.3}, {4, 0.3}}),
		"node out of range": listJSON(t, 3, []row{{40, 0.3}}),
		"score above one":   listJSON(t, 3, []row{{4, 1.5}}),
		"too many results":  listJSON(t, 3, make([]row, queryK+1)),
		"wrong k":           []byte(`{"source":3,"k":5,"results":[]}`),
	} {
		if err := validateBody(body, single, queryK, 10); err == nil {
			t.Errorf("%s: corrupted body passed the check", name)
		}
	}
	batch := request{kind: load.KindBatch, sources: []graph.NodeID{3, 5}}
	for name, body := range map[string]string{
		"missing item": `{"k":10,"items":[{"source":3,"results":[]}]}`,
		"item error":   `{"k":10,"items":[{"source":3,"results":[]},{"source":5,"error":"boom"}]}`,
		"swapped":      `{"k":10,"items":[{"source":5,"results":[]},{"source":3,"results":[]}]}`,
	} {
		if err := validateBody([]byte(body), batch, queryK, 10); err == nil {
			t.Errorf("batch %s: corrupted body passed the check", name)
		}
	}
}

func TestAlteredScoreFailsTheReferenceComparison(t *testing.T) {
	want := rankedRows(map[graph.NodeID]float64{1: 0.25, 2: 0.5, 3: 1, 4: 0.25}, 3, 2)
	if len(want) != 2 || want[0] != (row{2, 0.5}) || want[1] != (row{1, 0.25}) {
		t.Fatalf("rankedRows = %+v", want)
	}
	got := append([]row(nil), want...)
	if err := sameRows(got, want); err != nil {
		t.Fatalf("identical rows differ: %v", err)
	}
	got[1].Score = 0.25000000000000006 // one ulp off
	if err := sameRows(got, want); err == nil || !strings.Contains(err.Error(), "result 1") {
		t.Errorf("a one-ulp score change passed: %v", err)
	}
	if err := sameRows(got[:1], want); err == nil {
		t.Error("a missing row passed")
	}
}
