package engine

import (
	"context"
	"testing"
	"time"

	"seco/internal/mart"
	"seco/internal/plan"
	"seco/internal/query"
	"seco/internal/synth"
	"seco/internal/types"
)

// fixture builds the running-example world, plan and engine.
func fixture(t testing.TB) (*Engine, *plan.Plan, *query.Query, *synth.MovieWorld) {
	t.Helper()
	reg, err := mart.MovieScenario()
	if err != nil {
		t.Fatal(err)
	}
	p, q, err := plan.RunningExamplePlan(reg)
	if err != nil {
		t.Fatal(err)
	}
	world, err := synth.NewMovieWorld(reg, synth.MovieConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return New(world.Services(), nil), p, q, world
}

func executeFixture(t testing.TB, fetches map[string]int, k int) (*Run, *query.Query, *synth.MovieWorld) {
	t.Helper()
	e, p, q, world := fixture(t)
	a, err := plan.Annotate(p, fetches)
	if err != nil {
		t.Fatal(err)
	}
	run, err := e.Execute(context.Background(), a, Options{
		Inputs:  world.Inputs,
		Weights: q.Weights,
		TargetK: k,
	})
	if err != nil {
		t.Fatal(err)
	}
	return run, q, world
}

func TestExecuteRunningExampleEndToEnd(t *testing.T) {
	run, _, world := executeFixture(t, plan.Fig10Fetches(), 10)
	if len(run.Combinations) == 0 {
		t.Fatal("no combinations produced")
	}
	if len(run.Combinations) > 10 {
		t.Errorf("TargetK not honoured: %d results", len(run.Combinations))
	}
	for _, c := range run.Combinations {
		m, tt, r := c.Components["M"], c.Components["T"], c.Components["R"]
		if m == nil || tt == nil || r == nil {
			t.Fatalf("incomplete combination: %v", c)
		}
		// Shows: the movie title appears on the theatre's billboard.
		title := m.Get("Title").Str()
		okTitle := false
		for _, v := range tt.GroupValues("Movies", "Title") {
			if v.Str() == title {
				okTitle = true
			}
		}
		if !okTitle {
			t.Errorf("combination violates Shows: movie %q not at theatre %v", title, tt.Get("Name"))
		}
		// DinnerPlace: the restaurant sits at the theatre's address.
		if r.Get("UAddress").Str() != tt.Get("TAddress").Str() {
			t.Errorf("combination violates DinnerPlace: %v vs %v", r.Get("UAddress"), tt.Get("TAddress"))
		}
		// The movie satisfies the selections.
		if m.Get("Language").Str() != world.Inputs["INPUT7"].Str() {
			t.Errorf("language selection violated: %v", m.Get("Language"))
		}
	}
}

func TestExecuteRankedOutput(t *testing.T) {
	run, _, _ := executeFixture(t, plan.Fig10Fetches(), 0)
	for i := 1; i < len(run.Combinations); i++ {
		if run.Combinations[i].Score > run.Combinations[i-1].Score+1e-12 {
			t.Fatalf("output not ranked at %d: %v after %v",
				i, run.Combinations[i].Score, run.Combinations[i-1].Score)
		}
	}
}

func TestExecuteCallCounts(t *testing.T) {
	run, _, _ := executeFixture(t, plan.Fig10Fetches(), 10)
	// Movie and Theatre: one invocation each, at most the planned 5
	// fetches (fewer when the matching result list exhausts earlier).
	if run.Calls["M"] < 1 || run.Calls["M"] > 5 {
		t.Errorf("M calls = %d, want 1..5", run.Calls["M"])
	}
	if run.Calls["T"] != 5 {
		t.Errorf("T calls = %d, want 5 (50 theatres in chunks of 5)", run.Calls["T"])
	}
	// Restaurant: one fetch per joined movie-theatre combination (only
	// for combinations that survived the MS join).
	if run.Calls["R"] == 0 {
		t.Error("R never called")
	}
	if run.TotalCalls() != run.Calls["M"]+run.Calls["T"]+run.Calls["R"] {
		t.Error("TotalCalls mismatch")
	}
}

func TestExecuteMoreFetchesMoreResults(t *testing.T) {
	small, _, _ := executeFixture(t, map[string]int{"M": 1, "T": 1, "R": 1}, 0)
	big, _, _ := executeFixture(t, plan.Fig10Fetches(), 0)
	if len(big.Combinations) < len(small.Combinations) {
		t.Errorf("more fetches produced fewer results: %d vs %d",
			len(big.Combinations), len(small.Combinations))
	}
}

func TestExecuteUnboundInputFails(t *testing.T) {
	e, p, q, world := fixture(t)
	a, err := plan.Annotate(p, plan.Fig10Fetches())
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string]types.Value{}
	for k, v := range world.Inputs {
		inputs[k] = v
	}
	delete(inputs, "INPUT1")
	if _, err := e.Execute(context.Background(), a, Options{
		Inputs: inputs, Weights: q.Weights,
	}); err == nil {
		t.Error("execution with unbound INPUT1 succeeded")
	}
}

func TestExecuteContextCancel(t *testing.T) {
	e, p, q, world := fixture(t)
	a, err := plan.Annotate(p, plan.Fig10Fetches())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Execute(ctx, a, Options{Inputs: world.Inputs, Weights: q.Weights}); err == nil {
		t.Error("cancelled execution succeeded")
	}
}

func TestExecuteTravelPlan(t *testing.T) {
	reg, err := mart.TravelScenario()
	if err != nil {
		t.Fatal(err)
	}
	p, q, err := plan.TravelPlan(reg)
	if err != nil {
		t.Fatal(err)
	}
	world, err := synth.NewTravelWorld(reg, synth.TravelConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	e := New(world.Services(), nil)
	a, err := plan.Annotate(p, map[string]int{"F": 2, "H": 2})
	if err != nil {
		t.Fatal(err)
	}
	run, err := e.Execute(context.Background(), a, Options{
		Inputs: world.Inputs, Weights: q.Weights, TargetK: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Combinations) == 0 {
		t.Fatal("no travel combinations")
	}
	for _, c := range run.Combinations {
		conf, w, f, h := c.Components["C"], c.Components["W"], c.Components["F"], c.Components["H"]
		if conf == nil || w == nil || f == nil || h == nil {
			t.Fatalf("incomplete combination %v", c)
		}
		// Weather selection: only hot destinations survive.
		if temp := w.Get("AvgTemp").FloatVal(); temp <= 26 {
			t.Errorf("selection violated: temp %v", temp)
		}
		// The flight goes to the conference city; the hotel is there too.
		if f.Get("To").Str() != conf.Get("City").Str() {
			t.Errorf("flight to %v, conference in %v", f.Get("To"), conf.Get("City"))
		}
		if h.Get("City").Str() != conf.Get("City").Str() {
			t.Errorf("hotel in %v, conference in %v", h.Get("City"), conf.Get("City"))
		}
	}
	// Weather is invoked per conference: 20 calls.
	if run.Calls["W"] != 20 {
		t.Errorf("W calls = %d, want 20", run.Calls["W"])
	}
}

func TestExecuteWithLatencyDelay(t *testing.T) {
	reg, err := mart.MovieScenario()
	if err != nil {
		t.Fatal(err)
	}
	p, q, err := plan.RunningExamplePlan(reg)
	if err != nil {
		t.Fatal(err)
	}
	world, err := synth.NewMovieWorld(reg, synth.MovieConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	clk := NewVirtualClock()
	e := New(world.Services(), clk)
	a, err := plan.Annotate(p, map[string]int{"M": 1, "T": 1, "R": 1})
	if err != nil {
		t.Fatal(err)
	}
	run, err := e.Execute(context.Background(), a, Options{
		Inputs: world.Inputs, Weights: q.Weights,
	})
	if err != nil {
		t.Fatal(err)
	}
	if charged := clk.Now().Sub(time.Time{}); charged == 0 || charged != run.Elapsed {
		t.Errorf("clock charged %v, run elapsed %v: latency not charged to the engine clock", charged, run.Elapsed)
	}
}

func TestSessionMoreResults(t *testing.T) {
	e, p, q, world := fixture(t)
	s := NewSession(e, p, map[string]int{"M": 1, "T": 1, "R": 1}, Options{
		Inputs: world.Inputs, Weights: q.Weights, TargetK: 5,
	})
	first, err := s.Next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// No combination repeats across batches.
	seen := map[string]bool{}
	for _, c := range first {
		seen[comboKey(c)] = true
	}
	for _, c := range second {
		if seen[comboKey(c)] {
			t.Errorf("combination repeated across batches: %v", c)
		}
	}
	if len(first) == 0 {
		t.Error("first batch empty")
	}
	if len(first)+len(second) == 0 {
		t.Fatal("no results at all")
	}
	// Draining repeatedly eventually exhausts the services.
	for i := 0; i < 12; i++ {
		batch, err := s.Next(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) == 0 {
			return // exhausted
		}
	}
	t.Log("session still producing after many batches (large world); acceptable")
}
