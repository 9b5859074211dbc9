package main

import (
	"context"
	"fmt"
	"io"

	"seco/internal/core"
	"seco/internal/optimizer"
	"seco/internal/plan"
	"seco/internal/query"
)

// fullBudget re-annotates a planned result with every chunked service at
// its fetch cap, so the driver policy — the pull driver's corner-bound
// stopping rule or the materializing baseline's exhaustive drain — not
// the optimizer's fetch assignment, decides how many calls are issued.
func fullBudget(res *optimizer.Result) (*optimizer.Result, error) {
	fetches := map[string]int{}
	for _, id := range res.Plan.NodeIDs() {
		n, _ := res.Plan.Node(id)
		if n.Kind == plan.KindService && n.Stats.Chunked() {
			fetches[id] = int((n.Stats.AvgCardinality + float64(n.Stats.ChunkSize) - 1) / float64(n.Stats.ChunkSize))
		}
	}
	a, err := plan.Annotate(res.Plan, fetches)
	if err != nil {
		return nil, err
	}
	full := *res
	full.Annotated = a
	return &full, nil
}

// runE17 measures the n-ary ranked join on the cyclic triangle scenario
// (Artist–Venue–Promoter, each pair linked by an independent connection
// pattern) against the best binary join tree over the same services.
// Both plans get the full fetch budget; under the pull driver the
// multi-way operator's corner bound certifies the top-5 after a fraction
// of the request-responses the binary tree needs, because no binary cut
// can apply the deferred cycle-closing predicate before materializing
// the inflated intermediate.
func runE17(w io.Writer) error {
	sys, inputs, err := core.Triangle(7)
	if err != nil {
		return err
	}
	q, err := sys.Parse(query.TriangleExampleText)
	if err != nil {
		return err
	}
	type cell struct {
		Topology string  `json:"topology"`
		Executor string  `json:"executor"`
		Calls    int64   `json:"calls"`
		Saved    float64 `json:"calls_saved"`
		Halted   bool    `json:"halted"`
		TopScore float64 `json:"top_score"`
	}
	var cells []cell
	t := &table{header: []string{"topology", "executor", "calls", "saved", "halted", "top-5 score"}}
	pullCalls := map[string]map[string]int64{"streaming P=1": {}, "streaming": {}}
	for _, topo := range []struct {
		label   string
		disable bool
	}{{"n-ary", false}, {"binary-best", true}} {
		res, err := sys.Plan(q, core.PlanOptions{K: 5, DisableMultiway: topo.disable})
		if err != nil {
			return err
		}
		full, err := fullBudget(res)
		if err != nil {
			return err
		}
		for _, mode := range []struct {
			label       string
			materialize bool
			parallelism int
		}{{"streaming P=1", false, 1}, {"streaming", false, 0}, {"materializing", true, 0}} {
			run, err := sys.Run(context.Background(), full, core.RunOptions{
				Inputs: inputs, Materialize: mode.materialize, Parallelism: mode.parallelism,
			})
			if err != nil {
				return err
			}
			if len(run.Combinations) < 5 {
				return fmt.Errorf("%s/%s: only %d combinations", topo.label, mode.label, len(run.Combinations))
			}
			top := run.Combinations[0].Score
			t.add(topo.label, mode.label, fmt.Sprint(run.TotalCalls()), f2(run.CallsSaved),
				fmt.Sprint(run.Halted), f2(top))
			cells = append(cells, cell{topo.label, mode.label, run.TotalCalls(), run.CallsSaved, run.Halted, top})
			if !mode.materialize {
				pullCalls[mode.label][topo.label] = run.TotalCalls()
			}
		}
	}
	t.write(w)
	for _, p := range []struct{ label, name string }{{"streaming P=1", "Parallelism 1"}, {"streaming", "default Parallelism"}} {
		nc, bc := pullCalls[p.label]["n-ary"], pullCalls[p.label]["binary-best"]
		fmt.Fprintf(w, "\n  pull driver, certified top-5 at %s: n-ary %d calls vs binary %d (−%.0f%%).",
			p.name, nc, bc, 100*(1-float64(nc)/float64(bc)))
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "  the multi-way operator applies every cycle edge during enumeration, so")
	fmt.Fprintln(w, "  the corner bound certifies the top-5 before the binary tree, which must")
	fmt.Fprintln(w, "  defer one edge past its first join and read the inflated intermediate.")
	fmt.Fprintln(w, "  every reader is demand-paged: on the virtual clock a call is issued only")
	fmt.Fprintln(w, "  when the enumeration needs it, at any Parallelism (the window only reads")
	fmt.Fprintln(w, "  upstream ahead for the bound). both topologies return the identical result set")
	fmt.Fprintln(w, "  (equivalence tests of internal/core assert fingerprint identity across")
	fmt.Fprintln(w, "  seeds and policies).")
	return writeArtifact(w, "multiway_cells.json", cells)
}
