package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"seco/internal/engine"
	"seco/internal/mart"
	"seco/internal/query"
	"seco/internal/service"
)

func TestMovieNightEndToEnd(t *testing.T) {
	sys, inputs, err := MovieNight(7)
	if err != nil {
		t.Fatal(err)
	}
	q, err := sys.Parse(query.RunningExampleText)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Plan(q, PlanOptions{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil || res.Plan.Validate() != nil {
		t.Fatal("invalid optimized plan")
	}
	run, err := sys.Run(context.Background(), res, RunOptions{Inputs: inputs})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Combinations) == 0 {
		t.Fatal("no results")
	}
	if len(run.Combinations) > 10 {
		t.Errorf("K=10 exceeded: %d results", len(run.Combinations))
	}
	explain := sys.Explain(res)
	for _, frag := range []string{"topology:", "cost:", "plan (K=10)"} {
		if !strings.Contains(explain, frag) {
			t.Errorf("Explain missing %q:\n%s", frag, explain)
		}
	}
	if !strings.Contains(sys.DOT(res), "digraph plan") {
		t.Error("DOT output malformed")
	}
}

func TestConfTravelEndToEnd(t *testing.T) {
	sys, inputs, err := ConfTravel(11)
	if err != nil {
		t.Fatal(err)
	}
	q, err := sys.Parse(query.TravelExampleText)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Plan(q, PlanOptions{K: 5, Metric: "execution-time"})
	if err != nil {
		t.Fatal(err)
	}
	run, err := sys.Run(context.Background(), res, RunOptions{Inputs: inputs})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Combinations) == 0 {
		t.Fatal("no travel results")
	}
}

func TestSystemSession(t *testing.T) {
	sys, inputs, err := MovieNight(7)
	if err != nil {
		t.Fatal(err)
	}
	q, err := sys.Parse(query.RunningExampleText)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Plan(q, PlanOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := sys.Session(res, RunOptions{Inputs: inputs})
	if err != nil {
		t.Fatal(err)
	}
	first, err := sess.Next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 {
		t.Fatal("empty first batch")
	}
	if len(first) > 3 {
		t.Errorf("batch larger than K: %d", len(first))
	}
}

// CacheCalls changes call counts, never results.
func TestRunWithCacheCalls(t *testing.T) {
	sys, inputs, err := MovieNight(7)
	if err != nil {
		t.Fatal(err)
	}
	q, err := sys.Parse(query.RunningExampleText)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Plan(q, PlanOptions{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := sys.Run(context.Background(), res, RunOptions{Inputs: inputs, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	cached, err := sys.Run(context.Background(), res, RunOptions{
		Inputs: inputs, Parallelism: 1, CacheCalls: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Combinations) != len(cached.Combinations) {
		t.Fatalf("cache changed results: %d vs %d",
			len(plain.Combinations), len(cached.Combinations))
	}
	for i := range plain.Combinations {
		if plain.Combinations[i].String() != cached.Combinations[i].String() {
			t.Errorf("combination %d differs under cache", i)
		}
	}
}

func TestPlanUnknownMetric(t *testing.T) {
	sys, _, err := MovieNight(7)
	if err != nil {
		t.Fatal(err)
	}
	q, err := sys.Parse(query.RunningExampleText)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Plan(q, PlanOptions{Metric: "nope"}); err == nil {
		t.Error("unknown metric accepted")
	}
}

func TestBindErrors(t *testing.T) {
	sys := NewSystem()
	// Unregistered interface.
	reg, err := mart.MovieScenario()
	if err != nil {
		t.Fatal(err)
	}
	si, _ := reg.Interface("Movie1")
	tab, err := service.NewTable(si, service.Stats{Scoring: service.Constant(0.5)})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Bind(tab); err == nil {
		t.Error("bind to unregistered interface accepted")
	}
	// Duplicate bind.
	sys2 := NewSystemWith(reg)
	if err := sys2.Bind(tab); err != nil {
		t.Fatal(err)
	}
	if err := sys2.Bind(tab); err == nil {
		t.Error("duplicate bind accepted")
	}
	if _, ok := sys2.Service("Movie1"); !ok {
		t.Error("Service lookup failed")
	}
}

func TestRunWithoutBoundServiceFails(t *testing.T) {
	reg, err := mart.MovieScenario()
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystemWith(reg)
	// Bind only Movie1 with stats so planning fails on missing stats, or
	// bind all but run against a system missing one binding.
	full, inputs, err := MovieNight(7)
	if err != nil {
		t.Fatal(err)
	}
	q, err := full.Parse(query.RunningExampleText)
	if err != nil {
		t.Fatal(err)
	}
	res, err := full.Plan(q, PlanOptions{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(context.Background(), res, RunOptions{Inputs: inputs}); err == nil {
		t.Error("run without bound services succeeded")
	}
}

func TestRunBudgetAndDegrade(t *testing.T) {
	sys, inputs, err := MovieNight(7)
	if err != nil {
		t.Fatal(err)
	}
	q, err := sys.Parse(query.RunningExampleText)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Plan(q, PlanOptions{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	clean, err := sys.Run(ctx, res, RunOptions{Inputs: inputs})
	if err != nil {
		t.Fatal(err)
	}
	if clean.Degraded != nil {
		t.Fatalf("unbudgeted run degraded: %v", clean.Degraded)
	}
	budget := clean.Elapsed / 2
	if _, err := sys.Run(ctx, res, RunOptions{Inputs: inputs, Budget: budget}); !errors.Is(err, engine.ErrBudget) {
		t.Fatalf("budget without Degrade: want ErrBudget, got %v", err)
	}
	run, err := sys.Run(ctx, res, RunOptions{Inputs: inputs, Budget: budget, Degrade: true})
	if err != nil {
		t.Fatalf("degraded run errored: %v", err)
	}
	d := run.Degraded
	if d == nil {
		t.Fatal("budgeted Degrade run returned no Degraded report")
	}
	if d.Reason != engine.DegradeBudget {
		t.Errorf("reason = %v, want DegradeBudget", d.Reason)
	}
	if d.CertifiedK > len(run.Combinations) {
		t.Fatalf("CertifiedK %d > %d results", d.CertifiedK, len(run.Combinations))
	}
	for i := 0; i < d.CertifiedK; i++ {
		if run.Combinations[i].Score != clean.Combinations[i].Score {
			t.Errorf("certified combo %d: score %v != clean %v",
				i, run.Combinations[i].Score, clean.Combinations[i].Score)
		}
	}
}
