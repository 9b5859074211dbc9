package main

import (
	"context"
	"fmt"
	"io"

	"seco/internal/engine"
	"seco/internal/mart"
	"seco/internal/plan"
	"seco/internal/synth"
)

// runE15 measures the pull-based streaming executor against the original
// materialize-then-truncate path. Both executors receive the same
// annotated plan and fetch budget; the streaming one additionally applies
// the top-k stopping rule (the join operator's n-ary corner bound
// composed along the plan), halting service calls as soon as the
// guaranteed top-K is in hand. The saved column is Run.CallsSaved: the
// annotation model's expected request-responses minus the calls actually
// issued.
func runE15(w io.Writer) error {
	t := &table{header: []string{"scenario", "executor", "calls", "saved", "halted", "top-5 score"}}

	// movienight: the chapter's world sizes (200 movies, 50 theatres, so
	// the world's rank distributions match the published scoring curves)
	// with a denser billboard, deep enough that full materialization is
	// visibly wasteful.
	movieReg, err := mart.MovieScenario()
	if err != nil {
		return err
	}
	mp, mq, err := plan.RunningExamplePlan(movieReg)
	if err != nil {
		return err
	}
	movieWorld, err := synth.NewMovieWorld(movieReg, synth.MovieConfig{Seed: 7, TitlesPerTheatre: 16})
	if err != nil {
		return err
	}
	ma, err := plan.Annotate(mp, plan.Fig10Fetches())
	if err != nil {
		return err
	}

	travelReg, err := mart.TravelScenario()
	if err != nil {
		return err
	}
	tp, tq, err := plan.TravelPlan(travelReg)
	if err != nil {
		return err
	}
	travelWorld, err := synth.NewTravelWorld(travelReg, synth.TravelConfig{Seed: 11})
	if err != nil {
		return err
	}
	ta, err := plan.Annotate(tp, map[string]int{"F": 2, "H": 2})
	if err != nil {
		return err
	}

	scenarios := []struct {
		name string
		ann  *plan.Annotated
		opts engine.Options
		mk   func() *engine.Engine
	}{
		{"movienight", ma,
			engine.Options{Inputs: movieWorld.Inputs, Weights: mq.Weights, TargetK: 5, Parallelism: 4},
			func() *engine.Engine { return engine.New(movieWorld.Services(), nil) }},
		{"conftravel", ta,
			engine.Options{Inputs: travelWorld.Inputs, Weights: tq.Weights, TargetK: 5, Parallelism: 4},
			func() *engine.Engine { return engine.New(travelWorld.Services(), nil) }},
	}
	for _, sc := range scenarios {
		for _, mode := range []struct {
			label       string
			materialize bool
		}{{"streaming", false}, {"materializing", true}} {
			opts := sc.opts
			opts.Materialize = mode.materialize
			run, err := sc.mk().Execute(context.Background(), sc.ann, opts)
			if err != nil {
				return err
			}
			top := "—"
			if len(run.Combinations) > 0 {
				top = f2(run.Combinations[0].Score)
			}
			t.add(sc.name, mode.label, fmt.Sprint(run.TotalCalls()), f2(run.CallsSaved),
				fmt.Sprint(run.Halted), top)
		}
	}
	t.write(w)
	fmt.Fprintln(w, "\n  both executors return the identical top-5 (the equivalence tests of")
	fmt.Fprintln(w, "  internal/engine assert component-level identity); the streaming one stops")
	fmt.Fprintln(w, "  fetching once the k-th buffered score dominates the root stream's bound,")
	fmt.Fprintln(w, "  so the saving grows with the depth of the search space the plan budgets.")
	return nil
}
