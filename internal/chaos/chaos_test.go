package chaos

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"seco/internal/engine"
	"seco/internal/service"
	"seco/internal/types"
)

func TestRuleDecisions(t *testing.T) {
	cases := []struct {
		name string
		rule Rule
		call Call
		want Verdict
	}{
		{"rate below p", TransientRate{P: 0.3}, Call{Draw: 0.1}, Verdict{Fault: FaultTransient}},
		{"rate above p", TransientRate{P: 0.3}, Call{Draw: 0.5}, Verdict{}},
		{"burst before", TransientBurst{Start: 4, Len: 2}, Call{Seq: 3}, Verdict{}},
		{"burst inside", TransientBurst{Start: 4, Len: 2}, Call{Seq: 5}, Verdict{Fault: FaultTransient}},
		{"burst after", TransientBurst{Start: 4, Len: 2}, Call{Seq: 6}, Verdict{}},
		{"failAfter before", FailAfter{N: 2}, Call{Seq: 1}, Verdict{}},
		{"failAfter at", FailAfter{N: 2}, Call{Seq: 2}, Verdict{Fault: FaultPermanent}},
		{"spike off-beat", LatencySpike{Every: 3, Delay: time.Second}, Call{Seq: 0}, Verdict{}},
		{"spike on-beat", LatencySpike{Every: 3, Delay: time.Second}, Call{Seq: 2}, Verdict{Delay: time.Second}},
		{"binding miss", BindingFault{Path: "City", Value: "Roma", Fault: FaultTransient},
			Call{Op: "invoke", Input: service.Input{{Path: "City", Value: types.String("Milano")}}}, Verdict{}},
		{"binding hit", BindingFault{Path: "City", Value: "Roma", Fault: FaultPermanent},
			Call{Op: "invoke", Input: service.Input{{Path: "City", Value: types.String("Roma")}}}, Verdict{Fault: FaultPermanent}},
		{"binding fetch exempt", BindingFault{Path: "City", Value: "Roma", Fault: FaultPermanent},
			Call{Op: "fetch"}, Verdict{}},
	}
	for _, tc := range cases {
		if got := tc.rule.Decide(tc.call); got != tc.want {
			t.Errorf("%s: %s.Decide(%+v) = %+v, want %+v", tc.name, tc.rule, tc.call, got, tc.want)
		}
	}
}

func TestFaultPlanSeedsPerAlias(t *testing.T) {
	fp := FaultPlan{Seed: 42}
	if fp.aliasSeed("A") == fp.aliasSeed("B") {
		t.Fatal("aliases A and B drew the same injector seed")
	}
	if fp.aliasSeed("A") != (FaultPlan{Seed: 42}).aliasSeed("A") {
		t.Fatal("alias seed is not a pure function of (plan seed, alias)")
	}
}

// TestFaultPlanWrapScope checks that only aliases with rules are wrapped.
func TestFaultPlanWrapScope(t *testing.T) {
	sc, err := MovienightScenario()
	if err != nil {
		t.Fatal(err)
	}
	fp := FaultPlan{Seed: 1, Rules: map[string][]Rule{"M": {FailAfter{N: 0}}}}
	wrapped, injectors := fp.Wrap(sc.Services, engine.NewVirtualClock())
	if len(injectors) != 1 || injectors["M"] == nil {
		t.Fatalf("want exactly injector for M, got %v", injectors)
	}
	for alias, svc := range wrapped {
		_, isInjector := svc.(*Injector)
		if isInjector != (alias == "M") {
			t.Errorf("alias %s: wrapped=%v", alias, isInjector)
		}
	}
}

func sweepSeeds(t *testing.T) []int64 {
	if testing.Short() {
		return []int64{3}
	}
	return []int64{1, 2, 3, 4, 5, 6}
}

// TestSweepInvariants is the acceptance test of the chaos harness: every
// seeded schedule over both scenarios must satisfy the resilience
// invariants, and the sweep must not be vacuous.
func TestSweepInvariants(t *testing.T) {
	scenarios, err := Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	seeds := sweepSeeds(t)
	sum, err := Sweep(context.Background(), scenarios, func(aliases []string) []Schedule {
		return DefaultSchedules(aliases, seeds)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range sum.Violations() {
		t.Error(v)
	}
	if sum.TotalInjected() == 0 {
		t.Error("sweep injected no faults at all — the schedules are vacuous")
	}
	var transientRetried, degradedFailure, degradedBudget bool
	for _, r := range sum.Results {
		if !r.Degraded && r.Injected > 0 && r.Retries > 0 {
			transientRetried = true
		}
		if r.Degraded && r.Reason == string(engine.DegradeServiceFailure) {
			degradedFailure = true
			if len(r.Failed) == 0 {
				t.Errorf("%s/%s(seed=%d): degraded for service failure without naming the service",
					r.Scenario, r.Schedule, r.Seed)
			}
		}
		if r.Degraded && r.Reason == string(engine.DegradeBudget) {
			degradedBudget = true
		}
	}
	if !transientRetried {
		t.Error("no schedule exercised the retry path (injected faults with retries)")
	}
	if !degradedFailure {
		t.Error("no schedule degraded for a permanent service failure")
	}
	if !degradedBudget {
		t.Error("no schedule degraded for budget expiry")
	}
}

// TestOverloadSchedules sweeps the saturation-storm family: spike-heavy
// transient-only cells must replay the fault-free top-k exactly, and the
// quarter-budget cells must expire mid-run and degrade to a certified
// partial — the same shed path the serving layer's admission tiers rely
// on, checked here one request at a time.
func TestOverloadSchedules(t *testing.T) {
	scenarios, err := Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Sweep(context.Background(), scenarios, func(aliases []string) []Schedule {
		return OverloadSchedules(aliases, sweepSeeds(t))
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range sum.Violations() {
		t.Error(v)
	}
	var spikes int64
	var budgetRan, budgetDegraded bool
	for _, r := range sum.Results {
		spikes += r.Spikes
		if r.Schedule == "overload-budget" {
			budgetRan = true
			if r.Degraded && r.Reason == string(engine.DegradeBudget) {
				budgetDegraded = true
			}
		}
	}
	if spikes == 0 {
		t.Error("overload storm fired no latency spikes — vacuous")
	}
	if !budgetRan {
		t.Error("no overload-budget cell ran")
	}
	if !budgetDegraded {
		t.Error("no overload-budget cell degraded for budget expiry despite a quarter budget under spikes")
	}
}

// TestSweepDeterministic replays the sweep and requires identical cells,
// every field of every cell: same seeds, same faults, same runs. The
// overload family rides along, so streaming budget expiries are held to
// the same replay check.
func TestSweepDeterministic(t *testing.T) {
	run := func() *Summary {
		scenarios, err := Scenarios()
		if err != nil {
			t.Fatal(err)
		}
		sum, err := Sweep(context.Background(), scenarios, func(aliases []string) []Schedule {
			return append(DefaultSchedules(aliases, []int64{9, 10}),
				OverloadSchedules(aliases, []int64{9})...)
		})
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	a, b := run(), run()
	if len(a.Results) != len(b.Results) {
		t.Fatalf("sweeps produced %d vs %d cells", len(a.Results), len(b.Results))
	}
	for i := range a.Results {
		ka, kb := fmt.Sprintf("%+v", a.Results[i]), fmt.Sprintf("%+v", b.Results[i])
		if ka != kb {
			t.Errorf("cell %d diverged between identical sweeps:\n%s\nvs\n%s", i, ka, kb)
		}
	}
}

// TestLatencySpikesChargeClock runs movienight under a spike-only
// schedule and requires the virtual elapsed time to exceed the fault-free
// reference by the injected delays.
func TestLatencySpikesChargeClock(t *testing.T) {
	sc, err := MovienightScenario()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ref, err := engine.New(sc.Services, nil).Execute(ctx, sc.Ann, sc.Opts)
	if err != nil {
		t.Fatal(err)
	}
	rules := map[string][]Rule{}
	for _, a := range sc.aliases() {
		rules[a] = []Rule{LatencySpike{Every: 2, Delay: 40 * time.Millisecond}}
	}
	clk := engine.NewVirtualClock()
	wrapped, injectors := FaultPlan{Seed: 5, Rules: rules}.Wrap(sc.Services, clk)
	run, err := engine.New(wrapped, clk).Execute(ctx, sc.Ann, sc.Opts)
	if err != nil {
		t.Fatal(err)
	}
	var spikes int64
	for _, inj := range injectors {
		spikes += inj.Resilience().Spikes
	}
	if spikes == 0 {
		t.Fatal("no latency spikes fired")
	}
	want := ref.Elapsed + time.Duration(spikes)*40*time.Millisecond
	if run.Elapsed < want {
		t.Errorf("spiked run elapsed %v, want at least %v (reference %v + %d spikes)",
			run.Elapsed, want, ref.Elapsed, spikes)
	}
	if !reflect.DeepEqual(comboKeys(run), comboKeys(ref)) {
		t.Error("latency spikes changed the result set")
	}
}

// TestBindingFaultPoisonsOneKey wraps the travel scenario's exact service
// with a BindingFault on a value that never occurs, and verifies the run
// is unaffected; then poisons the actual bound value and verifies the
// run degrades naming that service.
func TestBindingFaultPoisonsOneKey(t *testing.T) {
	sc, err := ConftravelScenario()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ref, err := engine.New(sc.Services, nil).Execute(ctx, sc.Ann, sc.Opts)
	if err != nil {
		t.Fatal(err)
	}

	alias, path := "C", "Topic"
	bound := sc.Opts.Inputs["INPUT1"].String()

	miss := FaultPlan{Seed: 3, Rules: map[string][]Rule{
		alias: {BindingFault{Path: path, Value: "no-such-topic", Fault: FaultPermanent}},
	}}
	clk := engine.NewVirtualClock()
	wrapped, _ := miss.Wrap(sc.Services, clk)
	run, err := engine.New(wrapped, clk).Execute(ctx, sc.Ann, sc.Opts)
	if err != nil {
		t.Fatalf("unpoisoned key still failed: %v", err)
	}
	if !reflect.DeepEqual(comboKeys(run), comboKeys(ref)) {
		t.Error("binding fault on an absent value changed the result")
	}

	hit := FaultPlan{Seed: 3, Rules: map[string][]Rule{
		alias: {BindingFault{Path: path, Value: bound, Fault: FaultPermanent}},
	}}
	clk = engine.NewVirtualClock()
	wrapped, _ = hit.Wrap(sc.Services, clk)
	opts := sc.Opts
	opts.Degrade = true
	run, err = engine.New(wrapped, clk).Execute(ctx, sc.Ann, opts)
	if err != nil {
		t.Fatalf("degrade mode still surfaced the failure as an error: %v", err)
	}
	if run.Degraded == nil {
		t.Fatal("poisoned binding did not degrade the run")
	}
	found := false
	for _, f := range run.Degraded.Failed {
		if f == alias {
			found = true
		}
	}
	if !found {
		t.Errorf("degradation blames %v, want %s", run.Degraded.Failed, alias)
	}
}

// TestSweepOutageOutlastsRetries runs the sweep under an outage that
// outlasts one retried operation: the first 30 calls to one alias per
// scenario fail transiently. The call policy gives up after nine failed
// attempts, and the run degrades for that service, naming it, with a
// certified prefix that matches the fault-free one. The sweep replays
// exactly.
//
// The circuit does not trip here: it needs three give-ups in a row on
// one policy, but a degradable run stops at its first, and each cell
// mounts a fresh policy. A trip needs a policy that outlives the run, as
// a served one would.
func TestSweepOutageOutlastsRetries(t *testing.T) {
	scenarios, err := Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	outage := func(aliases []string) []Schedule {
		return []Schedule{{Name: "outage", Seed: 1,
			Rules: map[string][]Rule{aliases[0]: {TransientBurst{Start: 0, Len: 30}}}}}
	}
	sweep := func() *Summary {
		sum, err := Sweep(context.Background(), scenarios, outage)
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	sum := sweep()
	for _, v := range sum.Violations() {
		t.Error(v)
	}
	if len(sum.Results) != len(scenarios) {
		t.Fatalf("%d cells, want one per scenario", len(sum.Results))
	}
	for _, r := range sum.Results {
		var giveUps int64
		for _, rs := range r.Resilience {
			giveUps += rs.GiveUps
		}
		if giveUps == 0 || !r.Degraded || r.Reason != string(engine.DegradeServiceFailure) || len(r.Failed) != 1 {
			t.Errorf("%s: %d give-ups, degraded %v (%s, failed %v); want the outage to outlast the retries and degrade the run for its service",
				r.Scenario, giveUps, r.Degraded, r.Reason, r.Failed)
		}
	}
	if again := sweep(); !reflect.DeepEqual(sum, again) {
		t.Errorf("the outage sweep did not replay:\n%+v\n%+v", sum.Results, again.Results)
	}
}
