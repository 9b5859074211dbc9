package engine

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"seco/internal/join"
	"seco/internal/plan"
	"seco/internal/service"
	"seco/internal/synth"
)

// The rank join is the pull driver on an all-equality binary join:
// these tests run the plan.RankedJoinPlan fixture and check the top-k
// guarantee against a brute-force join of the two services.

// rankJoinTables builds the two ranked services of the rank-join tests:
// 120 tuples each, 12 chunks of 10, keys 0..9 under uncorrelated
// rankings.
func rankJoinTables(t *testing.T) (*service.Table, *service.Table) {
	t.Helper()
	mk := func(name string, seed int64) *service.Table {
		tab, err := synth.NewRanked(synth.RankedConfig{
			Name: name, N: 120, KeyMod: 10, Shuffle: true, Seed: seed,
			Stats: service.Stats{AvgCardinality: 120, ChunkSize: 10, Scoring: service.Linear(120)},
		})
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	return mk("X", 11), mk("Y", 12)
}

// runRankJoin runs the fixture over xs and ys for the best k pairs, under
// the pull driver or, with materialize, the drain.
func runRankJoin(t *testing.T, ctx context.Context, xs, ys *service.Table, k int, materialize bool) (*Run, error) {
	t.Helper()
	a, err := plan.RankedJoinPlan(xs, ys, 0.1, k)
	if err != nil {
		t.Fatal(err)
	}
	e := New(map[string]service.Service{"X": xs, "Y": ys}, nil)
	p, err := e.Prepare(a, PrepareOptions{Weights: plan.RankedJoinWeights(), TargetK: k, Materialize: materialize})
	if err != nil {
		t.Fatal(err)
	}
	return p.Run(ctx, RunOptions{})
}

// rankJoinSigs reduces a run's combinations to their (X, Y) positions
// and scores.
func rankJoinSigs(r *Run) []scoredSig {
	out := make([]scoredSig, len(r.Combinations))
	for i, c := range r.Combinations {
		out[i] = scoredSig{fmt.Sprintf("X=%d Y=%d", c.Components["X"].Get("Pos").IntVal(),
			c.Components["Y"].Get("Pos").IntVal()), c.Score}
	}
	return out
}

// rankJoinReference is the brute-force join of xs and ys on Key, scored
// by the fixture's weights and keyed like rankJoinSigs.
func rankJoinReference(t *testing.T, xs, ys *service.Table) map[string]float64 {
	t.Helper()
	w := plan.RankedJoinWeights()
	ref := map[string]float64{}
	ys1 := drainTable(t, ys)
	for _, x := range drainTable(t, xs) {
		for _, y := range ys1 {
			if x.Get("Key").IntVal() == y.Get("Key").IntVal() {
				ref[fmt.Sprintf("X=%d Y=%d", x.Get("Pos").IntVal(), y.Get("Pos").IntVal())] = w["X"]*x.Score + w["Y"]*y.Score
			}
		}
	}
	return ref
}

// rankJoinCase is one K of the rank-join fixture run both ways.
type rankJoinCase struct {
	k           int
	pull, drain *Run
}

// rankJoinCases runs the fixture under the pull driver and the drain at
// K 1/5/10/20/40 and at a K beyond the number of matching pairs, and
// returns the runs with the brute-force reference.
func rankJoinCases(t *testing.T) ([]rankJoinCase, map[string]float64) {
	t.Helper()
	xs, ys := rankJoinTables(t)
	ref := rankJoinReference(t, xs, ys)
	ctx := context.Background()
	var cases []rankJoinCase
	for _, k := range []int{1, 5, 10, 20, 40, len(ref) + 10} {
		pull, err := runRankJoin(t, ctx, xs, ys, k, false)
		if err != nil {
			t.Fatal(err)
		}
		drain, err := runRankJoin(t, ctx, xs, ys, k, true)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, rankJoinCase{k, pull, drain})
	}
	return cases, ref
}

// At every K the pull driver's top-K is the brute-force top-K, and the
// drain's top-K pair for pair and bit for bit.
func TestRankJoinReturnsExactTopK(t *testing.T) {
	cases, ref := rankJoinCases(t)
	for _, c := range cases {
		got := rankJoinSigs(c.pull)
		sameTopK(t, fmt.Sprintf("K=%d pull", c.k), got, referenceTopK(ref, c.k))
		if d := rankJoinSigs(c.drain); !reflect.DeepEqual(got, d) {
			t.Errorf("K=%d: pull %v, drain %v", c.k, got, d)
		}
	}
}

// The pull driver emits its top-K in non-increasing score order.
func TestRankJoinEmissionOrderNonIncreasing(t *testing.T) {
	cases, _ := rankJoinCases(t)
	for _, c := range cases {
		got := rankJoinSigs(c.pull)
		for i := 1; i < len(got); i++ {
			if got[i].score > got[i-1].score {
				t.Errorf("K=%d: rank %d scores %v above rank %d's %v", c.k, i, got[i].score, i-1, got[i-1].score)
			}
		}
	}
}

// Below the number of matching pairs the pull run halts on the guarantee
// with fewer calls than the drain.
func TestRankJoinStopsBeforeExhaustion(t *testing.T) {
	cases, ref := rankJoinCases(t)
	for _, c := range cases {
		if c.k > len(ref) {
			continue
		}
		if !c.pull.Halted || c.pull.TotalCalls() >= c.drain.TotalCalls() {
			t.Errorf("K=%d: pull halted=%v after %d calls, drain %d", c.k, c.pull.Halted, c.pull.TotalCalls(), c.drain.TotalCalls())
		}
	}
}

// Beyond the number of matching pairs the pull run returns every pair
// without halting.
func TestRankJoinExhaustsWhenKTooLarge(t *testing.T) {
	cases, ref := rankJoinCases(t)
	c := cases[len(cases)-1]
	if c.k <= len(ref) {
		t.Fatalf("last K %d not beyond %d matching pairs", c.k, len(ref))
	}
	if got := rankJoinSigs(c.pull); c.pull.Halted || len(got) != len(ref) {
		t.Errorf("K=%d beyond %d matching pairs: %d results, halted=%v", c.k, len(ref), len(got), c.pull.Halted)
	}
}

// A side with no tuples joins to nothing: no results and no error.
func TestRankJoinEmptySide(t *testing.T) {
	xs, ys := rankJoinTables(t)
	empty, err := service.NewTable(ys.Interface(), ys.Stats())
	if err != nil {
		t.Fatal(err)
	}
	for _, materialize := range []bool{false, true} {
		r, err := runRankJoin(t, context.Background(), xs, empty, 5, materialize)
		if err != nil {
			t.Fatalf("materialize=%v: %v", materialize, err)
		}
		if len(r.Combinations) != 0 {
			t.Errorf("materialize=%v: %d results joining an empty side", materialize, len(r.Combinations))
		}
	}
}

// A cancelled context stops the rank join with an error.
func TestRankJoinContextCancel(t *testing.T) {
	xs, ys := rankJoinTables(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := runRankJoin(t, ctx, xs, ys, 5, false); err == nil {
		t.Error("cancelled rank join succeeded")
	}
}

// The top-k guarantee costs at least as many request-responses as the
// approximate extraction-optimal method stopped at the same k — the
// Section 3.2 trade-off ("normally faster than top-k join methods").
func TestRankJoinCostsAtLeastApproximate(t *testing.T) {
	xs, ys := rankJoinTables(t)
	ctx := context.Background()
	pred := join.Predicate{Conds: []join.Condition{{Left: "Key", Right: "Key"}}}
	for _, k := range []int{1, 5, 10, 20, 40} {
		exact, err := runRankJoin(t, ctx, xs, ys, k, false)
		if err != nil {
			t.Fatal(err)
		}
		xi, err := xs.Invoke(ctx, nil)
		if err != nil {
			t.Fatal(err)
		}
		yi, err := ys.Invoke(ctx, nil)
		if err != nil {
			t.Fatal(err)
		}
		count := 0
		approx, err := join.Parallel(ctx, xi, yi,
			join.Strategy{Invocation: join.MergeScan, Completion: join.Triangular, FlushOnExhaust: true},
			pred, 0, 0, func(join.Pair) error {
				count++
				if count >= k {
					return join.ErrStop
				}
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if exact.TotalCalls() < int64(approx.TotalFetches()) {
			t.Errorf("K=%d: top-k guarantee cheaper than approximation: %d vs %d calls",
				k, exact.TotalCalls(), approx.TotalFetches())
		}
	}
}

// weightedThreshold at n=2 must agree with the pairwise corner bound
// max(w₁c₁+w₂b₂, w₁b₁+w₂c₂) — including the -Inf frontiers of an
// exhausted side, where the pairwise formula loses the term the same way.
func TestWeightedThresholdMatchesPairwise(t *testing.T) {
	ninf := math.Inf(-1)
	cases := []struct{ wx, wy, topX, topY, curX, curY float64 }{
		{0.5, 0.5, 1, 1, 0.7, 0.4},
		{0.3, 0.7, 0.9, 0.95, 0.9, 0.2},
		{1, 0, 0.8, 0.6, 0.1, 0.6},
		{0.25, 0.75, 0.5, 0.5, 0.5, 0.5},
		{0.5, 0.5, 0.9, 0.8, ninf, 0.3},    // X exhausted: only a new Y can come
		{0.5, 0.5, ninf, 0.8, ninf, 0.3},   // X silent: nothing completes through it
		{0.5, 0.5, 0.9, 0.8, ninf, ninf},   // both exhausted
		{0.5, 0.5, ninf, ninf, ninf, ninf}, // both silent
	}
	for _, c := range cases {
		pair := math.Max(c.wx*c.curX+c.wy*c.topY, c.wx*c.topX+c.wy*c.curY)
		nary := weightedThreshold(
			[]float64{c.wx, c.wy},
			[]float64{c.topX, c.topY},
			[]float64{c.curX, c.curY},
		)
		if pair != nary && !(math.Abs(pair-nary) <= 1e-12) {
			t.Errorf("case %+v: pairwise %v vs n-ary %v", c, pair, nary)
		}
	}
}

// The n-ary table: all-finite rows must be bit-identical to the original
// formula (total − wᵢ·bestᵢ + wᵢ·curᵢ, in that order — the pull driver
// halts on exact ties, so the arithmetic must not be reordered); -Inf
// rows skip exhausted inputs and collapse to -Inf on a silent one, zero
// weights included (0·-Inf would be NaN under the bare formula).
func TestWeightedThresholdInfinities(t *testing.T) {
	ninf := math.Inf(-1)
	original := func(w, best, cur []float64) float64 {
		total := 0.0
		for i := range w {
			total += w[i] * best[i]
		}
		tau := ninf
		for i := range w {
			if v := total - w[i]*best[i] + w[i]*cur[i]; v > tau {
				tau = v
			}
		}
		return tau
	}
	one := []float64{1, 1, 1}
	// Variables, not constants: expected sums must round like the runtime's.
	a, b, c, zero := 0.9, 0.8, 0.7, 0.0
	cases := []struct {
		name         string
		w, best, cur []float64
		want         float64 // NaN: the original formula's value, bit for bit
	}{
		{"all finite, unit weights", one, []float64{0.91, 0.83, 0.77}, []float64{0.35, 0.61, 0.77}, math.NaN()},
		{"all finite, mixed weights", []float64{0.3, 0.5, 0.2}, []float64{1, 0.9, 0.8}, []float64{0.6, 0.5, 0.8}, math.NaN()},
		{"all finite, tie-prone thirds", one, []float64{0.1, 0.2, 0.3}, []float64{0.1, 0.2, 0.3}, math.NaN()},
		{"one exhausted", one, []float64{0.9, 0.8, 0.7}, []float64{ninf, 0.5, 0.2}, a + b + c - b + 0.5},
		{"two exhausted", one, []float64{0.9, 0.8, 0.7}, []float64{ninf, ninf, 0.2}, a + b + c - c + 0.2},
		{"all exhausted", one, []float64{0.9, 0.8, 0.7}, []float64{ninf, ninf, ninf}, ninf},
		{"one silent", one, []float64{0.9, ninf, 0.7}, []float64{0.4, ninf, 0.2}, ninf},
		{"silent under zero weight", []float64{1, 0, 1}, []float64{0.9, ninf, 0.7}, []float64{0.4, ninf, 0.2}, ninf},
		{"exhausted under zero weight", []float64{1, 0, 1}, []float64{0.9, 0.8, 0.7}, []float64{0.4, ninf, 0.2}, a + zero*b + c - c + 0.2},
		{"no inputs", nil, nil, nil, ninf},
	}
	for _, c := range cases {
		got := weightedThreshold(c.w, c.best, c.cur)
		want := c.want
		if math.IsNaN(want) {
			want = original(c.w, c.best, c.cur)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: got %v (%#x), want %v (%#x)", c.name, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// The n-ary bound must dominate every combination with at least one
// unseen component, over a grid of candidate scores.
func TestWeightedThresholdDominates(t *testing.T) {
	weights := []float64{0.3, 0.5, 0.2}
	best := []float64{1, 0.9, 0.8}
	cur := []float64{0.6, 0.5, 0.8}
	tau := weightedThreshold(weights, best, cur)
	// Any combination where some component i is "unseen" (≤ cur[i]) must
	// be bounded by tau.
	grid := []float64{0, 0.2, 0.5, 0.6, 0.8, 0.9, 1}
	for _, s0 := range grid {
		for _, s1 := range grid {
			for _, s2 := range grid {
				s := []float64{s0, s1, s2}
				unseen := false
				sound := true
				for i := range s {
					if s[i] <= cur[i] {
						unseen = true
					}
					if s[i] > best[i] { // impossible: nothing beats the top
						sound = false
					}
				}
				if !unseen || !sound {
					continue
				}
				total := 0.0
				for i := range s {
					total += weights[i] * s[i]
				}
				if total > tau+1e-12 {
					t.Errorf("combination %v scores %v above threshold %v", s, total, tau)
				}
			}
		}
	}
}
