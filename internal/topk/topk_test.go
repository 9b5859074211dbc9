package topk

import (
	"context"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"seco/internal/join"
	"seco/internal/service"
	"seco/internal/synth"
	"seco/internal/types"
)

// rankedPair builds two ranked chunked services joining on Key.
func rankedPair(t testing.TB, n, keyMod, chunk int, seedX, seedY int64) (*service.Table, *service.Table) {
	t.Helper()
	mk := func(name string, seed int64) *service.Table {
		tab, err := synth.NewRanked(synth.RankedConfig{
			Name: name, N: n, KeyMod: keyMod, Shuffle: true, Seed: seed,
			Stats: service.Stats{AvgCardinality: float64(n), ChunkSize: chunk, Scoring: service.Linear(n)},
		})
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	return mk("X", seedX), mk("Y", seedY)
}

func invoke(t testing.TB, tab *service.Table) service.Invocation {
	t.Helper()
	inv, err := tab.Invoke(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return inv
}

func keyPred() join.Predicate {
	return join.Predicate{Conds: []join.Condition{{Left: "Key", Right: "Key"}}}
}

// bruteForceTopK computes the exact top-k pair scores of the full join.
func bruteForceTopK(t testing.TB, xs, ys *service.Table, comb Combiner, k int) []float64 {
	t.Helper()
	drain := func(tab *service.Table) []*types.Tuple {
		inv := invoke(t, tab)
		var all []*types.Tuple
		for {
			c, err := inv.Fetch(context.Background())
			if err != nil {
				break
			}
			all = append(all, c.Tuples...)
		}
		return all
	}
	var scores []float64
	pred := keyPred()
	for _, xt := range drain(xs) {
		for _, yt := range drain(ys) {
			ok, err := pred.Match(xt, yt)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				scores = append(scores, comb.Combine(xt.Score, yt.Score))
			}
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(scores)))
	if len(scores) > k {
		scores = scores[:k]
	}
	return scores
}

// The rank join must return exactly the brute-force top-k scores.
func TestJoinReturnsExactTopK(t *testing.T) {
	for _, comb := range []Combiner{Product{}, WeightedSum{WX: 0.3, WY: 0.7}} {
		xs, ys := rankedPair(t, 60, 6, 5, 1, 2)
		want := bruteForceTopK(t, xs, ys, comb, 10)
		got, stats, err := Join(context.Background(), invoke(t, xs), invoke(t, ys), Options{
			K: 10, Combiner: comb, Predicate: keyPred(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%T: got %d results, want %d", comb, len(got), len(want))
		}
		for i := range want {
			if diff := got[i].Score - want[i]; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("%T: result %d score %v, want %v", comb, i, got[i].Score, want[i])
			}
		}
		if stats.Emitted != 10 {
			t.Errorf("stats.Emitted = %d", stats.Emitted)
		}
	}
}

func TestJoinEmissionOrderNonIncreasing(t *testing.T) {
	xs, ys := rankedPair(t, 80, 8, 10, 3, 4)
	got, _, err := Join(context.Background(), invoke(t, xs), invoke(t, ys), Options{
		K: 20, Predicate: keyPred(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Score > got[i-1].Score+1e-12 {
			t.Fatalf("order violated at %d: %v after %v", i, got[i].Score, got[i-1].Score)
		}
	}
}

func TestJoinStopsBeforeExhaustion(t *testing.T) {
	xs, ys := rankedPair(t, 200, 2, 10, 5, 6) // dense matches
	_, stats, err := Join(context.Background(), invoke(t, xs), invoke(t, ys), Options{
		K: 5, Predicate: keyPred(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Exhausted {
		t.Error("dense join reported exhaustion")
	}
	// 200 tuples per side = 20 chunks each; top-5 must not need them all.
	if stats.TotalFetches() >= 40 {
		t.Errorf("no early termination: %d fetches", stats.TotalFetches())
	}
}

func TestJoinExhaustsWhenKTooLarge(t *testing.T) {
	xs, ys := rankedPair(t, 12, 4, 4, 7, 8)
	got, stats, err := Join(context.Background(), invoke(t, xs), invoke(t, ys), Options{
		K: 10000, Predicate: keyPred(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Exhausted {
		t.Error("exhaustion not reported")
	}
	want := bruteForceTopK(t, xs, ys, Product{}, 1<<30)
	if len(got) != len(want) {
		t.Errorf("drained %d results, full join has %d", len(got), len(want))
	}
}

func TestJoinEmptySide(t *testing.T) {
	xs, _ := rankedPair(t, 10, 2, 5, 9, 10)
	empty, err := synth.NewRanked(synth.RankedConfig{
		Name: "E", N: 1, KeyMod: 1,
		Stats: service.Stats{AvgCardinality: 1, ChunkSize: 5, Scoring: service.Linear(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	// An empty result list: invoke with a non-matching filter is not
	// possible here, so drain the one chunk first.
	inv := invoke(t, empty)
	if _, err := inv.Fetch(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, stats, err := Join(context.Background(), invoke(t, xs), inv, Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 || !stats.Exhausted {
		t.Errorf("join with exhausted side: %d results, exhausted=%v", len(got), stats.Exhausted)
	}
}

func TestJoinInvalidK(t *testing.T) {
	xs, ys := rankedPair(t, 4, 2, 2, 1, 2)
	if _, _, err := Join(context.Background(), invoke(t, xs), invoke(t, ys), Options{K: 0}); err == nil {
		t.Error("K=0 accepted")
	}
}

func TestJoinContextCancel(t *testing.T) {
	xs, ys := rankedPair(t, 10, 2, 2, 1, 2)
	ctx, cancel := context.WithCancel(context.Background())
	xi, yi := invoke(t, xs), invoke(t, ys)
	cancel()
	if _, _, err := Join(ctx, xi, yi, Options{K: 3}); err == nil {
		t.Error("cancelled join succeeded")
	}
}

func TestJoinClockRatioRespected(t *testing.T) {
	xs, ys := rankedPair(t, 100, 2, 5, 1, 2)
	_, stats, err := Join(context.Background(), invoke(t, xs), invoke(t, ys), Options{
		K: 40, RatioX: 1, RatioY: 2, Predicate: keyPred(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FetchesY < stats.FetchesX {
		t.Errorf("ratio 1:2 ignored: %d X fetches vs %d Y", stats.FetchesX, stats.FetchesY)
	}
}

// The top-k guarantee costs at least as many fetches as the approximate
// extraction-optimal method stopped at the same k — the Section 3.2
// trade-off ("normally faster than top-k join methods").
func TestGuaranteeCostsAtLeastApproximate(t *testing.T) {
	xs, ys := rankedPair(t, 120, 10, 10, 11, 12)
	const k = 10
	_, exact, err := Join(context.Background(), invoke(t, xs), invoke(t, ys), Options{
		K: k, Predicate: keyPred(),
	})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	approx, err := join.Parallel(context.Background(), invoke(t, xs), invoke(t, ys),
		join.Strategy{Invocation: join.MergeScan, Completion: join.Triangular, FlushOnExhaust: true},
		keyPred(), 0, 0, func(join.Pair) error {
			count++
			if count >= k {
				return join.ErrStop
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if exact.TotalFetches() < approx.TotalFetches() {
		t.Errorf("top-k guarantee cheaper than approximation: %d vs %d fetches",
			exact.TotalFetches(), approx.TotalFetches())
	}
}

// Combiners must be monotone; the two provided ones are.
func TestCombinerMonotoneProperty(t *testing.T) {
	combs := []Combiner{Product{}, WeightedSum{WX: 0.4, WY: 0.6}}
	f := func(a, b, d uint8) bool {
		sx := float64(a) / 255
		sy := float64(b) / 255
		delta := float64(d) / 255
		for _, c := range combs {
			if c.Combine(sx+delta, sy) < c.Combine(sx, sy)-1e-12 {
				return false
			}
			if c.Combine(sx, sy+delta) < c.Combine(sx, sy)-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The pairwise corner bound must dominate every pair that uses at least
// one unseen tuple (score ≤ cur on its side, best on the other).
func TestThresholdDominatesUnseenPairs(t *testing.T) {
	comb := WeightedSum{WX: 0.6, WY: 0.4}
	topX, topY := 0.9, 0.8
	curX, curY := 0.5, 0.3
	tau := Threshold(comb, topX, topY, curX, curY)
	for _, sx := range []float64{0.5, 0.4, 0.1, 0} {
		for _, sy := range []float64{0.8, 0.3, 0.2} {
			if sx <= curX || sy <= curY { // at least one unseen component
				if got := comb.Combine(sx, sy); got > tau+1e-12 {
					t.Errorf("pair (%v,%v) scores %v above threshold %v", sx, sy, got, tau)
				}
			}
		}
	}
	if want := comb.Combine(topX, curY); tau < want {
		t.Errorf("threshold %v below corner %v", tau, want)
	}
}

// WeightedThreshold at n=2 must agree with the pairwise Threshold under
// the same weighted-sum combiner — including the -Inf frontiers of an
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
		pair := Threshold(WeightedSum{WX: c.wx, WY: c.wy}, c.topX, c.topY, c.curX, c.curY)
		nary := WeightedThreshold(
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
		got := WeightedThreshold(c.w, c.best, c.cur)
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
// unseen component, over randomized inputs.
func TestWeightedThresholdDominates(t *testing.T) {
	weights := []float64{0.3, 0.5, 0.2}
	best := []float64{1, 0.9, 0.8}
	cur := []float64{0.6, 0.5, 0.8}
	tau := WeightedThreshold(weights, best, cur)
	// Enumerate a grid of candidate scores; any combination where some
	// component i is "unseen" (≤ cur[i]) must be bounded by tau.
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
