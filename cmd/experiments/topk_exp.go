package main

import (
	"context"
	"fmt"
	"io"
	"sort"

	"seco/internal/engine"
	"seco/internal/join"
	"seco/internal/plan"
	"seco/internal/service"
	"seco/internal/synth"
)

// runE13 quantifies the Section 3.2 trade-off between the approximate
// extraction-optimal methods of this chapter and the guaranteed top-k
// join methods it defers to the next chapter: the guarantee costs more
// request-responses, the approximation loses some of the true top-k.
// The guaranteed side is the engine's pull driver on the rank-join
// fixture; both sides rank pairs by the fixture's weighted sum.
func runE13(w io.Writer) error {
	mk := func(name string, seed int64) (*service.Table, error) {
		return synth.NewRanked(synth.RankedConfig{
			Name: name, N: 200, KeyMod: 20, Shuffle: true, Seed: seed,
			Stats: service.Stats{AvgCardinality: 200, ChunkSize: 10, Scoring: service.Linear(200)},
		})
	}
	xs, err := mk("X", 21)
	if err != nil {
		return err
	}
	ys, err := mk("Y", 22)
	if err != nil {
		return err
	}
	weights := plan.RankedJoinWeights()
	pred := join.Predicate{Conds: []join.Condition{{Left: "Key", Right: "Key"}}}
	eng := engine.New(map[string]service.Service{"X": xs, "Y": ys}, nil)
	ctx := context.Background()
	t := &table{header: []string{"k", "top-k fetches (exact)", "approx fetches", "approx recall"}}
	for _, k := range []int{5, 10, 20, 40} {
		a, err := plan.RankedJoinPlan(xs, ys, 1.0/20, k)
		if err != nil {
			return err
		}
		p, err := eng.Prepare(a, engine.PrepareOptions{Weights: weights, TargetK: k})
		if err != nil {
			return err
		}
		exact, err := p.Run(ctx, engine.RunOptions{})
		if err != nil {
			return err
		}
		trueScores := make([]float64, len(exact.Combinations))
		for i, c := range exact.Combinations {
			trueScores[i] = c.Score
		}

		xi, err := xs.Invoke(ctx, nil)
		if err != nil {
			return err
		}
		yi, err := ys.Invoke(ctx, nil)
		if err != nil {
			return err
		}
		var approxScores []float64
		approxStats, err := join.Parallel(ctx, xi, yi,
			join.Strategy{Invocation: join.MergeScan, Completion: join.Triangular, FlushOnExhaust: true},
			pred, 0, 0, func(p join.Pair) error {
				approxScores = append(approxScores, weights["X"]*p.X.Score+weights["Y"]*p.Y.Score)
				if len(approxScores) >= k {
					return join.ErrStop
				}
				return nil
			})
		if err != nil {
			return err
		}
		t.add(i0(k), i0(int(exact.TotalCalls())), i0(approxStats.TotalFetches()),
			f2(recall(trueScores, approxScores)))
	}
	t.write(w)
	fmt.Fprintln(w, "\n  claim (§3.2): non-top-k methods \"are normally faster than top-k join")
	fmt.Fprintln(w, "  methods\" at the price of an approximate ranking.")
	return nil
}

// recall measures the fraction of the exact top-k score mass the
// approximate emission captured (multiset intersection over scores).
func recall(exact, approx []float64) float64 {
	if len(exact) == 0 {
		return 1
	}
	a := append([]float64(nil), approx...)
	sort.Sort(sort.Reverse(sort.Float64Slice(a)))
	hit := 0
	for _, e := range exact {
		for i, v := range a {
			if v > e-1e-9 && v < e+1e-9 {
				hit++
				a = append(a[:i], a[i+1:]...)
				break
			}
		}
	}
	return float64(hit) / float64(len(exact))
}
