package optimizer

import (
	"fmt"
	"math"
	"sort"

	"seco/internal/cost"
	"seco/internal/mart"
	"seco/internal/plan"
	"seco/internal/plancheck"
	"seco/internal/query"
	"seco/internal/service"
)

// AccessHeuristic orders the candidate interfaces of phase 1
// (Section 5.3).
type AccessHeuristic int

const (
	// BoundIsBetter prefers interfaces with many input attributes:
	// smaller answers, faster services, less caching.
	BoundIsBetter AccessHeuristic = iota
	// UnboundIsEasier prefers interfaces with few input attributes,
	// making it easier to find a feasible assignment.
	UnboundIsEasier
)

// String names the heuristic.
func (h AccessHeuristic) String() string {
	if h == BoundIsBetter {
		return "bound-is-better"
	}
	return "unbound-is-easier"
}

// TopologyHeuristic orders the candidate steps of phase 2 (Section 5.4).
type TopologyHeuristic int

const (
	// SelectiveFirst builds long linear paths ordered by decreasing
	// selectivity: singleton steps first, most selective service first.
	SelectiveFirst TopologyHeuristic = iota
	// ParallelIsBetter always tries the choice maximizing parallelism:
	// the largest groups first.
	ParallelIsBetter
)

// String names the heuristic.
func (h TopologyHeuristic) String() string {
	if h == SelectiveFirst {
		return "selective-first"
	}
	return "parallel-is-better"
}

// Heuristics bundles the per-phase branch-ordering choices.
type Heuristics struct {
	Access   AccessHeuristic
	Topology TopologyHeuristic
	Fetch    FetchHeuristic
}

// Options configures an optimization run.
type Options struct {
	// K is the number of requested combinations (default 10).
	K int
	// Metric is the cost metric to minimize (default request-response).
	Metric cost.Metric
	// Heuristics select the branch orderings.
	Heuristics Heuristics
	// Stats supplies per-alias service statistics; aliases without an
	// entry get the statistics registered for their interface via
	// StatsByInterface.
	Stats map[string]service.Stats
	// StatsByInterface supplies statistics keyed by interface name, used
	// when phase 1 explores alternative interfaces.
	StatsByInterface map[string]service.Stats
	// MaxPlans stops the search after fully costing this many complete
	// plans (0 = explore exhaustively). The search is anytime: the best
	// plan found so far is returned.
	MaxPlans int
	// DisablePruning turns off bound-based pruning (exhaustive
	// exploration), used to verify optimality in tests.
	DisablePruning bool
	// DisableMultiway turns off the n-ary multijoin variant of eligible
	// parallel steps, restricting phase 2 to binary join trees (used to
	// compare the two topologies and to pin the binary plan in tests).
	DisableMultiway bool
	// FixedInterfaces skips phase 1 and uses the interfaces already
	// bound by Analyze.
	FixedInterfaces bool
}

// Result is the outcome of an optimization run.
type Result struct {
	// Plan is the best complete plan found.
	Plan *plan.Plan
	// Annotated is its fully instantiated annotation.
	Annotated *plan.Annotated
	// Query is the (possibly re-interfaced) query the plan executes.
	Query *query.Query
	// Cost is the plan's cost under the chosen metric.
	Cost float64
	// Topology is the winning topology.
	Topology Topology
	// Explored counts complete plans costed; Pruned counts topology
	// prefixes discarded by the bound; Assignments counts phase-1
	// interface assignments tried.
	Explored, Pruned, Assignments int
}

// Optimize runs the three-phase branch and bound of Section 5.2 and
// returns the cheapest fully instantiated plan found. The query must have
// been analyzed against reg.
func Optimize(q *query.Query, reg *mart.Registry, opt Options) (*Result, error) {
	if !q.Analyzed() {
		return nil, fmt.Errorf("optimizer: query not analyzed")
	}
	if opt.K <= 0 {
		opt.K = 10
	}
	if opt.Metric == nil {
		opt.Metric = cost.RequestResponse{}
	}
	res := &Result{Cost: math.Inf(1)}
	assignments := enumerateAssignments(q, reg, opt)
	if len(assignments) == 0 {
		return nil, fmt.Errorf("optimizer: no interface assignment available")
	}
	for _, assign := range assignments {
		res.Assignments++
		qa := q.WithInterfaces(assign)
		if !feasible(qa) {
			continue
		}
		if err := searchTopologies(qa, opt, res); err != nil {
			return nil, err
		}
		if opt.MaxPlans > 0 && res.Explored >= opt.MaxPlans {
			break
		}
	}
	if res.Plan == nil {
		return nil, fmt.Errorf("optimizer: query is not feasible under any interface assignment")
	}
	// Assert mode: the winning plan must satisfy every invariant the
	// engine's correctness arguments assume. A violation here is an
	// optimizer bug, not a user error — surface it loudly instead of
	// letting the engine reject (or silently mis-execute) the plan.
	if rep := plancheck.CheckAnnotated(res.Annotated); !rep.OK() {
		return nil, fmt.Errorf("optimizer: produced invalid plan: %w", rep.Err())
	}
	return res, nil
}

// enumerateAssignments lists the phase-1 interface assignments in
// heuristic order. With FixedInterfaces (or when no alternatives exist)
// there is a single assignment: the one Analyze bound.
func enumerateAssignments(q *query.Query, reg *mart.Registry, opt Options) []map[string]*mart.Interface {
	current := map[string]*mart.Interface{}
	for _, ref := range q.Services {
		current[ref.Alias] = ref.Interface
	}
	if opt.FixedInterfaces {
		return []map[string]*mart.Interface{current}
	}
	perAlias := make([][]*mart.Interface, len(q.Services))
	for i, ref := range q.Services {
		cands := reg.InterfacesFor(ref.Interface.Mart.Name)
		if len(cands) == 0 {
			cands = []*mart.Interface{ref.Interface}
		}
		ordered := append([]*mart.Interface(nil), cands...)
		sort.SliceStable(ordered, func(a, b int) bool {
			na, nb := len(ordered[a].InputPaths()), len(ordered[b].InputPaths())
			if na != nb {
				if opt.Heuristics.Access == BoundIsBetter {
					return na > nb
				}
				return na < nb
			}
			return ordered[a].Name < ordered[b].Name
		})
		perAlias[i] = ordered
	}
	var out []map[string]*mart.Interface
	assign := map[string]*mart.Interface{}
	var rec func(i int)
	rec = func(i int) {
		if i == len(q.Services) {
			cp := make(map[string]*mart.Interface, len(assign))
			for k, v := range assign {
				cp[k] = v
			}
			out = append(out, cp)
			return
		}
		for _, si := range perAlias[i] {
			assign[q.Services[i].Alias] = si
			rec(i + 1)
		}
	}
	rec(0)
	return out
}

func feasible(q *query.Query) bool {
	f, err := q.CheckFeasibility()
	return err == nil && f.Feasible
}

// searchTopologies runs phases 2–3 for one interface assignment,
// branch-and-bounding over topology prefixes.
func searchTopologies(q *query.Query, opt Options, res *Result) error {
	stats, err := resolveStats(q, opt)
	if err != nil {
		return err
	}
	f, err := newFacts(q, stats)
	if err != nil {
		return err
	}
	var current Topology
	var rec func(included aliasSet) error
	rec = func(included aliasSet) error {
		if opt.MaxPlans > 0 && res.Explored >= opt.MaxPlans {
			return nil
		}
		if included == f.all {
			return completePlan(f, current, opt, res)
		}
		// Bound: the partial plan with minimal fetches lower-bounds every
		// completion; prune when it already exceeds the best cost. The
		// bound is the min over both join topologies of the prefix — a
		// binary bound alone could wrongly prune a cheaper multi-way
		// completion.
		if !opt.DisablePruning && len(current) > 0 && res.Plan != nil {
			bound, err := partialBound(f, current, opt)
			if err != nil {
				return err
			}
			if bound >= res.Cost {
				res.Pruned++
				return nil
			}
		}
		for _, step := range f.orderedSteps(included, opt.Heuristics.Topology) {
			current = append(current, step)
			if err := rec(included | f.setOf(step.Group)); err != nil {
				return err
			}
			current = current[:len(current)-1]
		}
		return nil
	}
	return rec(0)
}

// variants materializes a topology or topology prefix: its binary-tree
// plan and, when multi-way joins are enabled and some parallel step takes
// the n-ary form, that plan too.
func (f *facts) variants(t Topology, opt Options, partial bool) ([]*plan.Plan, error) {
	p, err := f.buildPlan(t, opt.K, partial, false)
	if err != nil {
		return nil, err
	}
	if opt.DisableMultiway || !f.hasMultiway(t) {
		return []*plan.Plan{p}, nil
	}
	mp, err := f.buildPlan(t, opt.K, partial, true)
	if err != nil {
		return nil, err
	}
	return []*plan.Plan{p, mp}, nil
}

// partialBound lower-bounds the cost of every completion of a topology
// prefix: the cheaper of its binary and (when distinct and enabled)
// multi-way materializations with minimal fetches.
func partialBound(f *facts, t Topology, opt Options) (float64, error) {
	plans, err := f.variants(t, opt, true)
	if err != nil {
		return 0, err
	}
	bound := math.Inf(1)
	for _, p := range plans {
		a, err := plan.Annotate(p, nil)
		if err != nil {
			return 0, err
		}
		bound = math.Min(bound, opt.Metric.Cost(a))
	}
	return bound, nil
}

// completePlan builds, instantiates and costs a full topology — both its
// binary-tree and, when a parallel step is multiway-eligible, its n-ary
// materialization — updating the incumbent when cheaper.
func completePlan(f *facts, t Topology, opt Options, res *Result) error {
	plans, err := f.variants(t, opt, false)
	if err != nil {
		return err
	}
	for _, p := range plans {
		a, err := ChooseFetches(p, opt.Metric, opt.Heuristics.Fetch)
		if err != nil {
			return err
		}
		res.Explored++
		c := opt.Metric.Cost(a)
		// Prefer plans that meet K; among those, the cheaper one.
		better := false
		switch {
		case res.Plan == nil:
			better = true
		case a.MeetsK() && !res.Annotated.MeetsK():
			better = true
		case a.MeetsK() == res.Annotated.MeetsK() && c < res.Cost:
			better = true
		}
		if better {
			res.Plan = p
			res.Annotated = a
			res.Cost = c
			res.Query = f.q
			res.Topology = append(Topology(nil), t...)
		}
	}
	return nil
}

// orderedSteps lists the candidate next steps in heuristic order.
func (f *facts) orderedSteps(included aliasSet, h TopologyHeuristic) []Step {
	reachable := f.reachable(included)
	var singles []Step
	for _, a := range reachable {
		singles = append(singles, Step{Group: []string{a}})
	}
	var groups []Step
	for _, g := range f.groupCandidates(reachable, included) {
		groups = append(groups, Step{Group: g})
	}
	switch h {
	case ParallelIsBetter:
		sort.SliceStable(groups, func(i, j int) bool {
			return len(groups[i].Group) > len(groups[j].Group)
		})
		return append(groups, singles...)
	default: // SelectiveFirst
		sort.SliceStable(singles, func(i, j int) bool {
			return standaloneYield(f.stats, singles[i].Group[0]) < standaloneYield(f.stats, singles[j].Group[0])
		})
		return append(singles, groups...)
	}
}

// standaloneYield estimates the tuples one invocation of the alias
// produces with one fetch: the selective-first ordering key.
func standaloneYield(stats map[string]service.Stats, alias string) float64 {
	st, ok := stats[alias]
	if !ok {
		return math.Inf(1)
	}
	if st.Chunked() {
		return float64(st.ChunkSize)
	}
	return st.AvgCardinality
}

// resolveStats produces the per-alias statistics for the current
// interface assignment.
func resolveStats(q *query.Query, opt Options) (map[string]service.Stats, error) {
	out := make(map[string]service.Stats, len(q.Services))
	for _, ref := range q.Services {
		if st, ok := opt.Stats[ref.Alias]; ok {
			out[ref.Alias] = st
			continue
		}
		if st, ok := opt.StatsByInterface[ref.Interface.Name]; ok {
			out[ref.Alias] = st
			continue
		}
		return nil, fmt.Errorf("optimizer: no statistics for alias %q (interface %s)", ref.Alias, ref.Interface.Name)
	}
	return out, nil
}
