// Command secoql parses, optimizes and executes Search Computing queries
// against the built-in synthetic scenarios.
//
// Usage:
//
//	secoql -scenario movienight [-query file.sql] [-k 10] [-metric execution-time]
//	       [-input INPUT1=Comedy ...] [-explain] [-dot] [-no-exec] [-more N]
//
// Without -query, the scenario's canonical query runs (the chapter's
// running example for movienight, the Figs. 2–3 plan for conftravel).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"seco/internal/core"
	"seco/internal/optimizer"
	"seco/internal/types"
)

type inputFlags map[string]types.Value

func (f inputFlags) String() string { return fmt.Sprintf("%v", map[string]types.Value(f)) }

func (f inputFlags) Set(s string) error {
	name, lit, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("want NAME=value, got %q", s)
	}
	f[strings.ToUpper(name)] = types.ParseValue(lit)
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "secoql:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("secoql", flag.ContinueOnError)
	var (
		scenario  = fs.String("scenario", "movienight", "built-in scenario: movienight, conftravel or triangle")
		queryFile = fs.String("query", "", "query file (default: the scenario's canonical query)")
		k         = fs.Int("k", 10, "number of requested combinations")
		metric    = fs.String("metric", "request-response", "cost metric: execution-time, sum, request-response, bottleneck, time-to-screen")
		heuristic = fs.String("topology", "selective-first", "topology heuristic: selective-first or parallel-is-better")
		seed      = fs.Int64("seed", 7, "synthetic-world seed")
		explain   = fs.Bool("explain", false, "print the optimized plan with annotations")
		dot       = fs.Bool("dot", false, "print the plan in Graphviz DOT and exit")
		noExec    = fs.Bool("no-exec", false, "optimize only, skip execution")
		more      = fs.Int("more", 0, "after the first batch, fetch N further result batches")
		overrides = inputFlags{}
	)
	fs.Var(overrides, "input", "bind an INPUT variable, e.g. -input INPUT1=Comedy (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	sys, inputs, src, err := core.Scenario(*scenario, *seed)
	if err != nil {
		return err
	}
	if *queryFile != "" {
		raw, err := os.ReadFile(*queryFile)
		if err != nil {
			return err
		}
		src = string(raw)
	}
	for name, v := range overrides {
		inputs[name] = v
	}

	q, err := sys.Parse(src)
	if err != nil {
		return err
	}
	feas, err := q.CheckFeasibility()
	if err != nil {
		return err
	}
	if !feas.Feasible {
		// Section 2.3: propose off-query services whose outputs could
		// bind the uncovered inputs.
		sugg, serr := q.SuggestAugmentations(sys.Registry())
		if serr == nil && len(sugg) > 0 {
			var b strings.Builder
			for _, s := range sugg {
				fmt.Fprintf(&b, "\n  augmentation: %s", s)
			}
			return fmt.Errorf("query is not feasible: unreachable services %v%s", feas.Unreachable, b.String())
		}
		return fmt.Errorf("query is not feasible: unreachable services %v", feas.Unreachable)
	}

	var topo optimizer.TopologyHeuristic
	switch *heuristic {
	case "selective-first":
		topo = optimizer.SelectiveFirst
	case "parallel-is-better":
		topo = optimizer.ParallelIsBetter
	default:
		return fmt.Errorf("unknown topology heuristic %q", *heuristic)
	}
	res, err := sys.Plan(q, core.PlanOptions{
		K: *k, Metric: *metric,
		Heuristics: optimizer.Heuristics{Topology: topo},
	})
	if err != nil {
		return err
	}
	if *dot {
		fmt.Fprint(out, sys.DOT(res))
		return nil
	}
	if *explain || *noExec {
		fmt.Fprintln(out, sys.Explain(res))
	}
	if *noExec {
		return nil
	}

	sess, err := sys.Session(res, core.RunOptions{Inputs: inputs})
	if err != nil {
		return err
	}
	ctx := context.Background()
	for batch := 0; batch <= *more; batch++ {
		combos, err := sess.Next(ctx)
		if err != nil {
			return err
		}
		if batch > 0 {
			fmt.Fprintf(out, "--- more results (batch %d) ---\n", batch+1)
		}
		if len(combos) == 0 {
			fmt.Fprintln(out, "(no further results)")
			break
		}
		for i, c := range combos {
			fmt.Fprintf(out, "%2d. %s\n", i+1, renderCombination(c))
		}
	}
	return nil
}

// renderCombination picks a human-readable summary per known alias, with a
// generic fallback.
func renderCombination(c *types.Combination) string {
	var parts []string
	for _, a := range c.Aliases() {
		t := c.Components[a]
		label := t.Get("Title")
		if label.IsNull() {
			label = t.Get("Name")
		}
		if label.IsNull() {
			label = t.Get("Key")
		}
		parts = append(parts, fmt.Sprintf("%s=%s", a, label))
	}
	return fmt.Sprintf("score=%.3f %s", c.Score, strings.Join(parts, " "))
}
