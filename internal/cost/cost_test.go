package cost

import (
	"math"
	"testing"

	"seco/internal/mart"
	"seco/internal/plan"
)

func annotatedRunningExample(t *testing.T, fetches map[string]int) *plan.Annotated {
	t.Helper()
	reg, err := mart.MovieScenario()
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := plan.RunningExamplePlan(reg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := plan.Annotate(p, fetches)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestRequestResponseOnFig10(t *testing.T) {
	a := annotatedRunningExample(t, plan.Fig10Fetches())
	// Movie 5 + Theatre 5 + Restaurant 25 calls.
	if got := (RequestResponse{}).Cost(a); got != 35 {
		t.Errorf("request-response = %v, want 35", got)
	}
}

func TestSumWithUniformChargesEqualsRequestResponse(t *testing.T) {
	a := annotatedRunningExample(t, plan.Fig10Fetches())
	// Every fixture service charges 1 per call, so sum == call count.
	if got, want := (Sum{}).Cost(a), (RequestResponse{}).Cost(a); got != want {
		t.Errorf("sum = %v, request-response = %v", got, want)
	}
	// Charging comparisons adds the MS candidates (1250).
	withCmp := Sum{PerComparison: 1}.Cost(a)
	if got := withCmp - (Sum{}).Cost(a); got != 1250 {
		t.Errorf("comparison charge = %v, want 1250", got)
	}
}

func TestExecutionTimeSlowestPath(t *testing.T) {
	a := annotatedRunningExample(t, plan.Fig10Fetches())
	// Paths: input→M→MS→R→out = 5×0.12 + 25×0.1 = 3.1
	//        input→T→MS→R→out = 5×0.08 + 25×0.1 = 2.9
	got := (ExecutionTime{}).Cost(a)
	if math.Abs(got-3.1) > 1e-9 {
		t.Errorf("execution-time = %v, want 3.1", got)
	}
}

func TestTimeToScreen(t *testing.T) {
	a := annotatedRunningExample(t, plan.Fig10Fetches())
	// One call per service on the slowest path: 0.12 + 0.1.
	got := (TimeToScreen{}).Cost(a)
	if math.Abs(got-0.22) > 1e-9 {
		t.Errorf("time-to-screen = %v, want 0.22", got)
	}
}

func TestBottleneck(t *testing.T) {
	a := annotatedRunningExample(t, plan.Fig10Fetches())
	// Restaurant: 25 calls × 0.1s = 2.5s dominates Movie (0.6) and
	// Theatre (0.4).
	got := (Bottleneck{}).Cost(a)
	if math.Abs(got-2.5) > 1e-9 {
		t.Errorf("bottleneck = %v, want 2.5", got)
	}
}

// Monotonicity: increasing fetch factors never lowers any metric.
func TestMetricsMonotoneInFetches(t *testing.T) {
	base := annotatedRunningExample(t, map[string]int{"M": 2, "T": 2, "R": 1})
	bigger := annotatedRunningExample(t, map[string]int{"M": 3, "T": 4, "R": 2})
	for _, m := range All() {
		lo, hi := m.Cost(base), m.Cost(bigger)
		if hi < lo-1e-12 {
			t.Errorf("%s: cost decreased %v → %v with more fetches", m.Name(), lo, hi)
		}
	}
}

func TestByName(t *testing.T) {
	for _, m := range All() {
		got, err := ByName(m.Name())
		if err != nil {
			t.Errorf("ByName(%q): %v", m.Name(), err)
			continue
		}
		if got.Name() != m.Name() {
			t.Errorf("ByName(%q) returned %q", m.Name(), got.Name())
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown metric accepted")
	}
}

func TestAllMetricsNonNegative(t *testing.T) {
	a := annotatedRunningExample(t, plan.Fig10Fetches())
	for _, m := range All() {
		if c := m.Cost(a); c < 0 {
			t.Errorf("%s cost negative: %v", m.Name(), c)
		}
	}
}

// Every metric is a pure function of the annotation: sums over nodes are
// taken in plan order, not in the iteration order of a map, so repeated
// evaluations agree to the last bit (completePlan breaks cost ties with
// a strict <).
func TestMetricsAreBitStable(t *testing.T) {
	reg, err := mart.TravelScenario()
	if err != nil {
		t.Fatal(err)
	}
	base, _, err := plan.TravelPlan(reg)
	if err != nil {
		t.Fatal(err)
	}
	// Four services with non-dyadic call counts, chosen so that the order
	// of the additions shows in the last bit of the total.
	p := base.Clone()
	for id, sel := range map[string]float64{"C": 0.24, "W": 0.79, "F": 0.21, "H": 0.48} {
		n, _ := p.Node(id)
		n.PipeSelectivity = sel
	}
	fetches := map[string]int{"F": 2, "H": 3}
	calls := map[uint64]bool{}
	costs := make([]map[uint64]bool, len(All()))
	for i := range costs {
		costs[i] = map[uint64]bool{}
	}
	for round := 0; round < 2000; round++ {
		a, err := plan.Annotate(p, fetches)
		if err != nil {
			t.Fatal(err)
		}
		calls[math.Float64bits(a.TotalCalls())] = true
		for i, m := range All() {
			costs[i][math.Float64bits(m.Cost(a))] = true
		}
	}
	if len(calls) != 1 {
		t.Errorf("TotalCalls took %d distinct values over 2000 evaluations", len(calls))
	}
	for i, m := range All() {
		if len(costs[i]) != 1 {
			t.Errorf("%s took %d distinct values over 2000 evaluations", m.Name(), len(costs[i]))
		}
	}
}
