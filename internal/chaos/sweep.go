package chaos

import (
	"context"
	"fmt"
	"sort"
	"time"

	"seco/internal/engine"
	"seco/internal/mart"
	"seco/internal/plan"
	"seco/internal/service"
	"seco/internal/synth"
)

// This file is the chaos sweep: it executes the benchmark scenarios
// (movienight, conftravel) under many seeded fault schedules and checks
// the resilience invariants in-line, so the same harness backs the chaos
// tests, the CI chaos job and the experiment report.
//
// The invariants:
//
//  1. Transient-only schedules are invisible: with the call policy in
//     place, both driver policies return exactly the fault-free top-k (same
//     combinations, same order, same request-response counts) while the
//     run report shows the injected faults and retries.
//  2. Lossy schedules (a service dies mid-run, or the budget expires)
//     degrade instead of failing: Execute returns a non-nil partial Run
//     with Degraded populated, and the certified prefix is identical to
//     the fault-free reference ranking.

// Scenario is one executable world: services, an annotated plan and the
// base execution options (deterministic: Parallelism 1).
type Scenario struct {
	Name     string
	Services map[string]service.Service
	Ann      *plan.Annotated
	Opts     engine.Options
}

// Schedule is one fault configuration of a sweep.
type Schedule struct {
	// Name labels the schedule in reports ("transient-rate", …).
	Name string
	// Seed drives every random draw of the schedule.
	Seed int64
	// Rules is the per-alias fault assignment.
	Rules map[string][]Rule
	// TransientOnly marks schedules whose faults are all retryable; the
	// sweep holds such runs to exact fault-free equivalence.
	TransientOnly bool
	// BudgetShare, when positive, sets Options.Budget to this share of
	// the fault-free run's Elapsed, forcing mid-run expiry.
	BudgetShare float64
}

// Result is the outcome of one (scenario, schedule, driver policy) cell.
type Result struct {
	Scenario  string
	Schedule  string
	Seed      int64
	Streaming bool

	Returned   int
	Degraded   bool
	Reason     string   `json:",omitempty"`
	Failed     []string `json:",omitempty"`
	CertifiedK int
	// Elapsed is the run's simulated time: service latency plus every
	// injected spike and retry backoff charged to the engine clock.
	Elapsed time.Duration

	Injected  int64
	Permanent int64
	Retries   int64
	Spikes    int64

	// Resilience is the per-alias middleware breakdown behind the
	// aggregate counters above (retries, breaker trips and rejections,
	// injected faults), straight from Run.Resilience.
	Resilience map[string]service.ResilienceStats `json:",omitempty"`

	// Violations lists every invariant the cell broke (empty = pass).
	Violations []string `json:",omitempty"`
}

// Summary aggregates a sweep.
type Summary struct {
	Results []Result
}

// Violations returns every violation across the sweep, prefixed with its
// cell identity.
func (s *Summary) Violations() []string {
	var out []string
	for _, r := range s.Results {
		for _, v := range r.Violations {
			out = append(out, fmt.Sprintf("%s/%s(seed=%d,streaming=%v): %s",
				r.Scenario, r.Schedule, r.Seed, r.Streaming, v))
		}
	}
	return out
}

// TotalInjected sums the injected transient faults across the sweep; a
// zero total means the sweep was vacuous.
func (s *Summary) TotalInjected() int64 {
	var n int64
	for _, r := range s.Results {
		n += r.Injected
	}
	return n
}

// MovienightScenario builds the running-example world and plan.
func MovienightScenario() (*Scenario, error) {
	reg, err := mart.MovieScenario()
	if err != nil {
		return nil, err
	}
	p, q, err := plan.RunningExamplePlan(reg)
	if err != nil {
		return nil, err
	}
	world, err := synth.NewMovieWorld(reg, synth.MovieConfig{Seed: 7})
	if err != nil {
		return nil, err
	}
	a, err := plan.Annotate(p, plan.Fig10Fetches())
	if err != nil {
		return nil, err
	}
	return &Scenario{
		Name:     "movienight",
		Services: world.Services(),
		Ann:      a,
		Opts: engine.Options{Inputs: world.Inputs, Weights: q.Weights,
			TargetK: 10, Parallelism: 1},
	}, nil
}

// ConftravelScenario builds the conference-travel world and plan.
func ConftravelScenario() (*Scenario, error) {
	reg, err := mart.TravelScenario()
	if err != nil {
		return nil, err
	}
	p, q, err := plan.TravelPlan(reg)
	if err != nil {
		return nil, err
	}
	world, err := synth.NewTravelWorld(reg, synth.TravelConfig{Seed: 11})
	if err != nil {
		return nil, err
	}
	a, err := plan.Annotate(p, map[string]int{"F": 1, "H": 1})
	if err != nil {
		return nil, err
	}
	return &Scenario{
		Name:     "conftravel",
		Services: world.Services(),
		Ann:      a,
		Opts: engine.Options{Inputs: world.Inputs, Weights: q.Weights,
			TargetK: 5, Parallelism: 1},
	}, nil
}

// Scenarios builds the default scenario set.
func Scenarios() ([]*Scenario, error) {
	movie, err := MovienightScenario()
	if err != nil {
		return nil, err
	}
	travel, err := ConftravelScenario()
	if err != nil {
		return nil, err
	}
	return []*Scenario{movie, travel}, nil
}

// DefaultSchedules derives one schedule of each family per seed, spread
// over the scenario's aliases: a module-wide transient rate with latency
// spikes, a transient burst on one service, a fail-forever on one
// service, and a budget expiry with a mild transient rate.
func DefaultSchedules(aliases []string, seeds []int64) []Schedule {
	var out []Schedule
	for _, seed := range seeds {
		victim := aliases[int(seed)%len(aliases)]
		rate := 0.05 + 0.02*float64(seed%8)
		all := map[string][]Rule{}
		for _, a := range aliases {
			all[a] = []Rule{
				TransientRate{P: rate},
				LatencySpike{Every: 7, Delay: 5 * time.Millisecond},
			}
		}
		out = append(out,
			Schedule{Name: "transient-rate", Seed: seed, Rules: all, TransientOnly: true},
			Schedule{Name: "transient-burst", Seed: seed, TransientOnly: true,
				Rules: map[string][]Rule{
					victim: {TransientBurst{Start: int(seed % 11), Len: 3}},
				}},
			Schedule{Name: "fail-forever", Seed: seed,
				Rules: map[string][]Rule{
					victim: {FailAfter{N: 3 + int(seed%17)}},
				}},
			// Budget cells expire mid-run. The invariants bound them
			// (certified prefix, elapsed ≤ budget, no violation) rather
			// than pin a combination count; the replay test pins the
			// count, since on the virtual clock every call is charged on
			// the goroutine that needs it.
			Schedule{Name: "budget", Seed: seed, BudgetShare: 0.5,
				Rules: map[string][]Rule{
					victim: {TransientRate{P: 0.05}},
				}},
		)
	}
	return out
}

// OverloadSchedules models the saturation regime the serving layer sheds
// under: every alias suffers heavy latency spikes plus a moderate
// transient rate, and a tight budget cell forces mid-run expiry under
// that inflated latency. It is the chaos-side counterpart of the loadgen
// overload sweep — same storm, one request at a time, with the full
// certified-prefix invariants checked in-line.
func OverloadSchedules(aliases []string, seeds []int64) []Schedule {
	var out []Schedule
	for _, seed := range seeds {
		storm := map[string][]Rule{}
		for _, a := range aliases {
			storm[a] = []Rule{
				LatencySpike{Every: 3, Delay: 25 * time.Millisecond},
				TransientRate{P: 0.06 + 0.02*float64(seed%4)},
			}
		}
		out = append(out,
			// Spike-heavy but transient-only: retries must hide every
			// fault even while every third call stalls.
			Schedule{Name: "overload-spikes", Seed: seed, Rules: storm, TransientOnly: true},
			// The same storm under a quarter budget: expiry is guaranteed
			// mid-run (spikes inflate elapsed well past the fault-free
			// reference), exercising the shed-to-certified-partial path the
			// admission controller leans on.
			Schedule{Name: "overload-budget", Seed: seed, BudgetShare: 0.25, Rules: storm},
		)
	}
	return out
}

// aliases lists a scenario's service aliases in deterministic order.
func (sc *Scenario) aliases() []string {
	var out []string
	for _, id := range sc.Ann.Plan.NodeIDs() {
		if n, _ := sc.Ann.Plan.Node(id); n.Kind == plan.KindService {
			out = append(out, n.Alias)
		}
	}
	return out
}

// sortedAliases returns the map's keys in deterministic order.
func sortedAliases(calls map[string]int64) []string {
	out := make([]string, 0, len(calls))
	for a := range calls {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// comboKeys renders a run's combinations to comparable identity strings,
// in rank order.
func comboKeys(run *engine.Run) []string {
	out := make([]string, len(run.Combinations))
	for i, c := range run.Combinations {
		out[i] = c.String()
	}
	return out
}

// runCell executes one scenario under one schedule and driver policy and
// checks its invariants against the fault-free reference.
func runCell(ctx context.Context, sc *Scenario, sched Schedule, streaming bool, ref *engine.Run) Result {
	res := Result{Scenario: sc.Name, Schedule: sched.Name, Seed: sched.Seed, Streaming: streaming}
	fail := func(format string, args ...any) {
		res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
	}

	// One virtual clock for the run: the injectors sleep their spikes,
	// the policies their backoff and cooldowns, and the engine its
	// service latency on it.
	clk := engine.NewVirtualClock()
	fp := FaultPlan{Seed: sched.Seed, Rules: sched.Rules}
	wrapped, _ := fp.Wrap(sc.Services, clk)
	for alias, svc := range wrapped {
		if _, faulty := fp.Rules[alias]; faulty {
			wrapped[alias] = service.NewPolicy(svc, clk, fp.aliasSeed(alias))
		}
	}
	opts := sc.Opts
	opts.Materialize = !streaming
	opts.Degrade = !sched.TransientOnly
	if sched.BudgetShare > 0 {
		opts.Budget = time.Duration(sched.BudgetShare * float64(ref.Elapsed))
		if opts.Budget <= 0 {
			fail("budget schedule on a zero-elapsed reference")
		}
	}

	run, err := engine.New(wrapped, clk).Execute(ctx, sc.Ann, opts)
	if err != nil {
		fail("execute failed: %v", err)
		return res
	}
	res.Returned = len(run.Combinations)
	res.Elapsed = run.Elapsed
	res.Resilience = run.Resilience
	for _, rs := range run.Resilience {
		res.Injected += rs.Injected
		res.Permanent += rs.Permanent
		res.Retries += rs.Retries
		res.Spikes += rs.Spikes
	}
	refKeys, gotKeys := comboKeys(ref), comboKeys(run)

	if run.Degraded != nil {
		res.Degraded = true
		res.Reason = string(run.Degraded.Reason)
		res.Failed = run.Degraded.Failed
		res.CertifiedK = run.Degraded.CertifiedK
	}

	if sched.TransientOnly {
		if run.Degraded != nil {
			fail("transient-only schedule degraded: %v", run.Degraded)
		}
		if len(gotKeys) != len(refKeys) {
			fail("returned %d combinations, reference %d", len(gotKeys), len(refKeys))
			return res
		}
		for i := range refKeys {
			if gotKeys[i] != refKeys[i] {
				fail("combination %d diverges from reference:\n got %s\n ref %s",
					i, gotKeys[i], refKeys[i])
				break
			}
		}
		// Request-response counts replay exactly under both drivers: on
		// the virtual clock every call is made on demand, so nothing races
		// the pull driver's top-k stop.
		for _, alias := range sortedAliases(ref.Calls) {
			if run.Calls[alias] != ref.Calls[alias] {
				fail("alias %s: %d request-responses vs reference %d (retries must be transparent)",
					alias, run.Calls[alias], ref.Calls[alias])
			}
		}
		return res
	}

	// Lossy schedule: either the fault never bit (the run certified its
	// top-k before reaching it and still matches the reference exactly)
	// or the run must have degraded gracefully.
	if run.Degraded == nil {
		if sched.BudgetShare > 0 && run.Elapsed >= opts.Budget {
			fail("budget overrun: elapsed %v over budget %v without degrading", run.Elapsed, opts.Budget)
		}
		for i := range gotKeys {
			if i < len(refKeys) && gotKeys[i] != refKeys[i] {
				fail("non-degraded lossy run diverges from reference at %d", i)
				break
			}
		}
		return res
	}
	d := run.Degraded
	if d.CertifiedK > len(gotKeys) {
		fail("certified prefix %d longer than result %d", d.CertifiedK, len(gotKeys))
		return res
	}
	// Every provably-correct result must coincide with the fault-free
	// reference — this is the guarantee the certified prefix makes.
	for i := 0; i < d.CertifiedK; i++ {
		if i >= len(refKeys) || gotKeys[i] != refKeys[i] {
			fail("certified combination %d differs from reference:\n got %s", i, gotKeys[i])
			break
		}
	}
	if sched.BudgetShare > 0 && d.Reason != engine.DegradeBudget && res.Permanent == 0 && res.Injected == 0 {
		fail("budget schedule degraded for %s without any injected fault", d.Reason)
	}
	return res
}

// Sweep runs every scenario under every schedule. Both driver policies
// execute the same compiled operator graph; transient-only schedules run
// under both (the equivalence must hold for each), while lossy schedules
// run under the pull driver, the only one that can degrade. Each policy
// is compared against its own fault-free reference: the two legitimately
// differ in how many request-responses they spend (the pull driver stops
// at the top-k threshold), and the invariant is that faults change
// neither.
func Sweep(ctx context.Context, scenarios []*Scenario, schedules func(aliases []string) []Schedule) (*Summary, error) {
	sum := &Summary{}
	for _, sc := range scenarios {
		refs := map[bool]*engine.Run{}
		for _, streaming := range []bool{true, false} {
			opts := sc.Opts
			opts.Materialize = !streaming
			ref, err := engine.New(sc.Services, nil).Execute(ctx, sc.Ann, opts)
			if err != nil {
				return nil, fmt.Errorf("chaos: fault-free reference for %s: %w", sc.Name, err)
			}
			refs[streaming] = ref
		}
		for _, sched := range schedules(sc.aliases()) {
			sum.Results = append(sum.Results, runCell(ctx, sc, sched, true, refs[true]))
			if sched.TransientOnly {
				sum.Results = append(sum.Results, runCell(ctx, sc, sched, false, refs[false]))
			}
		}
	}
	return sum, nil
}
