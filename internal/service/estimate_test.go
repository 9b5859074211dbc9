package service

import (
	"context"
	"math"
	"testing"

	"seco/internal/mart"
	"seco/internal/types"
)

// probeTable builds a one-input ranked table with n rows under the given
// scoring, keyed so one sample input returns everything.
func probeTable(t *testing.T, n, chunk int, sc Scoring) *Table {
	t.Helper()
	m := &mart.Mart{Name: "P", Attributes: []mart.Attribute{
		{Name: "Key", Kind: types.KindInt},
		{Name: "Val", Kind: types.KindFloat},
	}}
	si, err := mart.NewInterface("P1", m, map[string]mart.Adornment{"Key": mart.Input})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := NewTable(si, Stats{AvgCardinality: float64(n), ChunkSize: chunk, Scoring: sc})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		tu := types.NewTuple(sc.Score(i))
		tu.Set("Key", types.Int(1)).Set("Val", types.Float(sc.Score(i)))
		tab.Add(tu)
	}
	return tab
}

func probeInput() []Input {
	return []Input{{{Path: "Key", Value: types.Int(1)}}}
}

func TestEstimateStatsLinearService(t *testing.T) {
	tab := probeTable(t, 40, 10, Linear(40))
	st, err := EstimateStats(context.Background(), tab, probeInput(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.AvgCardinality != 40 {
		t.Errorf("AvgCardinality = %v, want 40", st.AvgCardinality)
	}
	if st.ChunkSize != 10 {
		t.Errorf("ChunkSize = %v, want 10", st.ChunkSize)
	}
	if st.Scoring.Kind != ScoringLinear {
		t.Errorf("Scoring = %v, want linear", st.Scoring.Kind)
	}
	if st.Scoring.N < 35 || st.Scoring.N > 50 {
		t.Errorf("Scoring.N = %d, want ≈40", st.Scoring.N)
	}
}

func TestEstimateStatsStepService(t *testing.T) {
	tab := probeTable(t, 40, 10, Step(20, 0.9, 0.1))
	st, err := EstimateStats(context.Background(), tab, probeInput(), 0)
	if err != nil {
		t.Fatal(err)
	}
	h, ok := st.Scoring.HasStep()
	if !ok {
		t.Fatalf("step not detected: %+v", st.Scoring)
	}
	if h != 20 {
		t.Errorf("step position = %d, want 20", h)
	}
}

func TestEstimateStatsConstantExactService(t *testing.T) {
	tab := probeTable(t, 7, 0, Constant(0.5))
	st, err := EstimateStats(context.Background(), tab, probeInput(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.ChunkSize != 0 {
		t.Errorf("unchunked service estimated chunk %d", st.ChunkSize)
	}
	if st.Scoring.Kind != ScoringConstant {
		t.Errorf("Scoring = %v, want constant", st.Scoring.Kind)
	}
	if st.AvgCardinality != 7 {
		t.Errorf("AvgCardinality = %v, want 7", st.AvgCardinality)
	}
}

func TestEstimateStatsMultipleSamplesAverage(t *testing.T) {
	tab := probeTable(t, 12, 0, Constant(0.5))
	// Second sample matches nothing: average halves.
	samples := []Input{{{Path: "Key", Value: types.Int(1)}}, {{Path: "Key", Value: types.Int(999)}}}
	st, err := EstimateStats(context.Background(), tab, samples, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.AvgCardinality-6) > 1e-9 {
		t.Errorf("AvgCardinality = %v, want 6", st.AvgCardinality)
	}
}

func TestEstimateStatsErrors(t *testing.T) {
	tab := probeTable(t, 4, 2, Linear(4))
	if _, err := EstimateStats(context.Background(), tab, nil, 0); err == nil {
		t.Error("no samples accepted")
	}
	if _, err := EstimateStats(context.Background(), tab, []Input{{}}, 0); err == nil {
		t.Error("unbound probe input accepted")
	}
}

func TestClassifyScoresEdgeCases(t *testing.T) {
	if sc := ClassifyScores(nil); sc.Kind != ScoringConstant {
		t.Errorf("empty scores → %v", sc.Kind)
	}
	if sc := ClassifyScores([]float64{0.7, 0.7, 0.7}); sc.Kind != ScoringConstant || sc.Score(0) != 0.7 {
		t.Errorf("flat scores → %+v", sc)
	}
	// Validated output: every classification passes Validate.
	for _, scores := range [][]float64{
		{1, 0.9, 0.8, 0.7},
		{0.9, 0.9, 0.1, 0.1},
		{0.5},
	} {
		if err := ClassifyScores(scores).Validate(); err != nil {
			t.Errorf("classification of %v invalid: %v", scores, err)
		}
	}
}

// The estimated statistics round-trip: probing a service built from the
// estimate behaves like the original for the optimizer's purposes
// (cardinality and chunking match).
func TestEstimateRoundTrip(t *testing.T) {
	orig := probeTable(t, 30, 5, Linear(30))
	st, err := EstimateStats(context.Background(), orig, probeInput(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Validate() != nil {
		t.Fatalf("estimated stats invalid: %+v", st)
	}
	rebuilt := probeTable(t, int(st.AvgCardinality), st.ChunkSize, st.Scoring)
	st2, err := EstimateStats(context.Background(), rebuilt, probeInput(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if st2.AvgCardinality != st.AvgCardinality || st2.ChunkSize != st.ChunkSize {
		t.Errorf("round trip drifted: %+v vs %+v", st, st2)
	}
}
