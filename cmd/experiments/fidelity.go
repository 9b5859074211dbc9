package main

import (
	"context"
	"fmt"
	"io"
	"sort"

	"seco/internal/core"
	"seco/internal/obs"
	"seco/internal/plancheck"
	"seco/internal/query"
	"seco/internal/types"
)

// runE18 is the CE quality harness: every scenario × driver policy runs
// with fidelity accounting under the virtual clock, and the per-node
// q-errors are rolled up per operator kind (nearest-rank median/p90 and
// max). The uniform worlds establish the baseline — including the
// numerical proof of the multi-way join's lossless-TOut claim — and the
// zipf-skewed triangle world shows where static statistics lie: the
// registered per-edge selectivity stays 1/Keys while the skewed data
// concentrates on a few hot keys, so the multijoin's actual output
// exceeds its annotation by an order of magnitude and drift fires.
func runE18(w io.Writer) error {
	type scenario struct {
		name string
		ctor func(int64) (*core.System, map[string]types.Value, error)
		text string
	}
	scenarios := []scenario{
		{"movienight", core.MovieNight, query.RunningExampleText},
		{"conftravel", core.ConfTravel, query.TravelExampleText},
		{"triangle", core.Triangle, query.TriangleExampleText},
		{"triangle-zipf", core.TriangleZipf, query.TriangleExampleText},
	}
	type cell struct {
		Scenario string  `json:"scenario"`
		Policy   string  `json:"policy"`
		Kind     string  `json:"kind"`
		Nodes    int     `json:"nodes"`
		MedianQ  float64 `json:"median_q"`
		P90Q     float64 `json:"p90_q"`
		MaxQ     float64 `json:"max_q"`
		Drifted  int     `json:"drifted"`
	}
	var cells []cell
	t := &table{header: []string{"scenario", "policy", "kind", "nodes", "median q", "p90 q", "max q", "drifted"}}
	var zipfDrift int64
	var triangleDrainMulti string
	for _, sc := range scenarios {
		sys, inputs, err := sc.ctor(7)
		if err != nil {
			return err
		}
		q, err := sys.Parse(sc.text)
		if err != nil {
			return err
		}
		res, err := sys.Plan(q, core.PlanOptions{K: 5})
		if err != nil {
			return err
		}
		// Full fetch budgets, as in E17: the driver policy — not the
		// optimizer's fetch assignment — decides how deep the run reaches.
		full, err := fullBudget(res)
		if err != nil {
			return err
		}
		for _, mode := range []struct {
			label       string
			materialize bool
		}{{"pull", false}, {"drain", true}} {
			reg := obs.NewRegistry()
			run, err := sys.Run(context.Background(), full, core.RunOptions{
				Inputs: inputs, Materialize: mode.materialize,
				Fidelity: true, Metrics: reg,
			})
			if err != nil {
				return err
			}
			rep := run.Fidelity
			if rep == nil {
				return fmt.Errorf("%s/%s: no fidelity report", sc.name, mode.label)
			}
			drifts := reg.Counters()["seco.fidelity.drift.detected"]
			if int(drifts) != rep.Drifted {
				return fmt.Errorf("%s/%s: drift counter %d != report %d",
					sc.name, mode.label, drifts, rep.Drifted)
			}
			if sc.name == "triangle-zipf" {
				zipfDrift += drifts
			}
			byKind := map[string][]float64{}
			driftByKind := map[string]int{}
			for _, nf := range rep.Nodes {
				byKind[nf.Kind] = append(byKind[nf.Kind], nf.Q)
				if nf.Drift {
					driftByKind[nf.Kind]++
				}
				if sc.name == "triangle" && mode.label == "drain" && nf.Kind == plancheck.OpMultiJoin {
					triangleDrainMulti = fmt.Sprintf(
						"multijoin est_out=%s act_out=%s q_out=%s", f2s(nf.EstOut), f2s(nf.ActOut), f2s(nf.QOut))
				}
			}
			kinds := make([]string, 0, len(byKind))
			for k := range byKind {
				kinds = append(kinds, k)
			}
			sort.Strings(kinds)
			for _, k := range kinds {
				qs := byKind[k]
				sort.Float64s(qs)
				med, p90, max := rank(qs, 0.5), rank(qs, 0.9), qs[len(qs)-1]
				t.add(sc.name, mode.label, k, i0(len(qs)), f2(med), f2(p90), f2(max), i0(driftByKind[k]))
				cells = append(cells, cell{sc.name, mode.label, k, len(qs), med, p90, max, driftByKind[k]})
			}
		}
	}
	t.write(w)
	if zipfDrift == 0 {
		return fmt.Errorf("zipf-skewed world produced no drift: the harness lost its teeth")
	}
	fmt.Fprintf(w, "\n  lossless TOut, measured: the triangle drain's %s —\n", triangleDrainMulti)
	fmt.Fprintln(w, "  the n-ary intersection emits every combination satisfying all three")
	fmt.Fprintln(w, "  edges, so its output annotation (full product × selectivity, no")
	fmt.Fprintln(w, "  completion factor) is honest within sampling noise. under the pull")
	fmt.Fprintln(w, "  policy actuals undershoot the estimates (the driver halts once the")
	fmt.Fprintln(w, "  top-5 is certified); the one-sided drift rule ignores that direction.")
	fmt.Fprintf(w, "  on the zipf world the hot keys push the real edge match rate far above\n")
	fmt.Fprintf(w, "  the registered 1/6, and seco.fidelity.drift.detected fired %d times —\n", zipfDrift)
	fmt.Fprintln(w, "  the re-planning trigger of ROADMAP item 11.")
	return writeArtifact(w, "fidelity_cells.json", cells)
}

// rank is the nearest-rank percentile of an ascending slice.
func rank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted)) + 0.999999)
	if i < 1 {
		i = 1
	}
	if i > len(sorted) {
		i = len(sorted)
	}
	return sorted[i-1]
}

// f2s renders an estimate compactly but without clipping large values.
func f2s(v float64) string { return fmt.Sprintf("%.4g", v) }
