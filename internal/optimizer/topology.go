// Package optimizer implements the branch-and-bound query optimization of
// Section 5: phase 1 selects access patterns (service interfaces), phase 2
// selects a query topology (the DAG of service invocations and joins),
// phase 3 chooses the fetching factors of chunked services. All cost
// metrics are monotone, so the cost of a partially constructed plan lower-
// bounds every completion and branches whose bound exceeds the best known
// complete plan are pruned. The search is anytime: it can be stopped after
// a budget of explored plans and still returns the best plan found.
package optimizer

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"seco/internal/join"
	"seco/internal/mart"
	"seco/internal/plan"
	"seco/internal/query"
	"seco/internal/service"
	"seco/internal/types"
)

// Step is one increment of a topology: a single service appended in series
// to the plan's frontier, or a group of ≥2 mutually independent services
// invoked in parallel and merged by parallel-join nodes before the
// frontier moves on (the "in series or in parallel" construction of
// Section 5.4).
type Step struct {
	// Group holds the aliases added by the step, sorted. A singleton is a
	// series step; larger groups are parallel steps.
	Group []string
}

// Parallel reports whether the step opens parallel branches.
func (s Step) Parallel() bool { return len(s.Group) > 1 }

// String renders the step, e.g. "T" or "(M‖T)".
func (s Step) String() string {
	if !s.Parallel() {
		return s.Group[0]
	}
	return "(" + strings.Join(s.Group, "‖") + ")"
}

// Topology is an ordered sequence of steps covering every service of the
// query exactly once.
type Topology []Step

// String renders the topology, e.g. "(M‖T) → R".
func (t Topology) String() string {
	parts := make([]string, len(t))
	for i, s := range t {
		parts[i] = s.String()
	}
	return strings.Join(parts, " → ")
}

// Aliases returns all aliases of the topology in step order.
func (t Topology) Aliases() []string {
	var out []string
	for _, s := range t {
		out = append(out, s.Group...)
	}
	return out
}

// aliasSet is a set of the query's service aliases, one bit per alias in
// select order.
type aliasSet uint64

// facts holds what phases 2–3 derive from one analyzed query under one
// interface assignment, each computed once per search instead of once per
// candidate plan: the bindings and connecting predicates of a service
// placed after a given set of aliases, the predicates and selectivity of
// a join between two alias sets, and the multi-way eligibility of a
// parallel group.
type facts struct {
	q       *query.Query
	stats   map[string]service.Stats
	bit     map[string]aliasSet
	all     aliasSet
	aliases []string // sorted
	chains  map[chainKey]*chain
	joins   map[[2]aliasSet]joinFacts
	multi   map[aliasSet]joinFacts
}

type chainKey struct {
	alias    string
	included aliasSet
}

// chain is the service node of one alias placed after a set of included
// aliases, plus the selection node that follows it.
type chain struct {
	reachable   bool
	bindings    []query.InputBinding
	deps        aliasSet // the aliases the bindings pipe from
	pipeSel     float64
	connPreds   []query.Predicate
	residual    []query.Predicate
	selEstimate float64
}

// joinFacts is the selectivity and predicate list of one join; ok is the
// multi-way eligibility of a parallel group.
type joinFacts struct {
	sel   float64
	preds []query.Predicate
	ok    bool
}

func newFacts(q *query.Query, stats map[string]service.Stats) (*facts, error) {
	if len(q.Services) > 64 {
		return nil, fmt.Errorf("optimizer: %d services, at most 64 supported", len(q.Services))
	}
	f := &facts{
		q: q, stats: stats,
		bit:    make(map[string]aliasSet, len(q.Services)),
		chains: map[chainKey]*chain{},
		joins:  map[[2]aliasSet]joinFacts{},
		multi:  map[aliasSet]joinFacts{},
	}
	for i, ref := range q.Services {
		f.bit[ref.Alias] = 1 << i
		f.all |= 1 << i
		f.aliases = append(f.aliases, ref.Alias)
	}
	sort.Strings(f.aliases)
	return f, nil
}

// setOf returns the bits of the given aliases.
func (f *facts) setOf(aliases []string) aliasSet {
	var s aliasSet
	for _, a := range aliases {
		s |= f.bit[a]
	}
	return s
}

// chain derives, once per (alias, included set), how the alias is invoked
// when exactly the included aliases precede it.
func (f *facts) chain(alias string, included aliasSet) *chain {
	key := chainKey{alias, included}
	if c, ok := f.chains[key]; ok {
		return c
	}
	c := &chain{}
	f.chains[key] = c
	in := make(map[string]bool, len(f.aliases))
	for a, b := range f.bit {
		if included&b != 0 {
			in[a] = true
		}
	}
	if c.bindings, c.reachable = f.q.BindingsGiven(alias, in); !c.reachable {
		return c
	}
	for _, b := range c.bindings {
		if b.Source.Kind == query.BindJoin {
			c.deps |= f.bit[b.Source.From.Alias]
		}
	}
	c.pipeSel, c.connPreds = connectionSelectivity(f.q, alias, in)
	// Residual selections: predicates over non-input paths, evaluable as
	// soon as the service has been called.
	ref, _ := f.q.Service(alias)
	c.selEstimate = 1
	for _, pr := range f.q.SelectionsFor(alias) {
		if ref.Interface.Adornments[pr.Left.Path] == mart.Input {
			continue // consumed by the invocation binding
		}
		c.residual = append(c.residual, pr)
		c.selEstimate *= pr.Op.Selectivity()
	}
	return c
}

// EnumerateTopologies generates every topology of the analyzed query under
// the given interface assignment: every ordered partition of the services
// into steps such that each step's services are reachable from the user
// input and the services of earlier steps. Singleton steps become series
// placements; larger steps become parallel placements merged by join
// nodes. For the running example this yields exactly the four topologies
// of Fig. 9.
func EnumerateTopologies(q *query.Query) ([]Topology, error) {
	if !q.Analyzed() {
		return nil, fmt.Errorf("optimizer: query not analyzed")
	}
	f, err := newFacts(q, nil)
	if err != nil {
		return nil, err
	}
	var (
		result  []Topology
		current Topology
	)
	var rec func(included aliasSet)
	rec = func(included aliasSet) {
		if included == f.all {
			cp := make(Topology, len(current))
			copy(cp, current)
			result = append(result, cp)
			return
		}
		reachable := f.reachable(included)
		// Singletons.
		for _, a := range reachable {
			current = append(current, Step{Group: []string{a}})
			rec(included | f.bit[a])
			current = current[:len(current)-1]
		}
		// Groups of every size ≥ 2, restricted to peers: members of a
		// parallel step must share the same dependency set, because they
		// are fed identically from the plan frontier before being merged
		// (this restriction reproduces exactly the four topologies of
		// Fig. 9 for the running example).
		for _, g := range f.groupCandidates(reachable, included) {
			current = append(current, Step{Group: g})
			rec(included | f.setOf(g))
			current = current[:len(current)-1]
		}
	}
	rec(0)
	return result, nil
}

// reachable lists the not-yet-included aliases whose inputs are coverable
// given the included set, sorted.
func (f *facts) reachable(included aliasSet) []string {
	var out []string
	for _, a := range f.aliases {
		if included&f.bit[a] == 0 && f.chain(a, included).reachable {
			out = append(out, a)
		}
	}
	return out
}

// groupCandidates enumerates the admissible parallel groups among the
// reachable aliases: subsets of size ≥ 2 whose members pipe from the same
// aliases given the included services.
func (f *facts) groupCandidates(reachable []string, included aliasSet) [][]string {
	var out [][]string
	for _, g := range subsetsAtLeast2(reachable) {
		sig := f.chain(g[0], included).deps
		same := true
		for _, a := range g[1:] {
			if f.chain(a, included).deps != sig {
				same = false
				break
			}
		}
		if same {
			out = append(out, g)
		}
	}
	return out
}

// subsetsAtLeast2 enumerates the subsets of size ≥ 2 of the sorted slice,
// each returned sorted, in deterministic order.
func subsetsAtLeast2(items []string) [][]string {
	var out [][]string
	n := len(items)
	for mask := 1; mask < 1<<n; mask++ {
		if bits.OnesCount(uint(mask)) < 2 {
			continue
		}
		var g []string
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				g = append(g, items[i])
			}
		}
		out = append(out, g)
	}
	return out
}

// BuildPlan materializes a topology into a plan DAG with the given
// statistics and K: service nodes with their input bindings and pipe
// selectivities, selection nodes for residual predicates over output
// attributes, and parallel-join nodes (left-deep) for parallel steps. The
// join strategy of each parallel join follows Section 4.3: nested loop
// when the left side has a step scoring function, merge-scan otherwise;
// completion is triangular when both sides are search services.
// When partial is true the output node is omitted (the plan annotates but
// does not validate), which is how the branch-and-bound costs prefixes.
func BuildPlan(q *query.Query, t Topology, stats map[string]service.Stats, k int, partial bool) (*plan.Plan, error) {
	f, err := newFacts(q, stats)
	if err != nil {
		return nil, err
	}
	return f.buildPlan(t, k, partial, false)
}

// buildPlan is BuildPlan over memoised facts. With multiway set, every
// parallel step of three or more services whose cross-predicate graph is
// multiway-legal and cyclic (see multiway) is merged by a single n-ary
// multijoin node instead of a left-deep binary tree.
func (f *facts) buildPlan(t Topology, k int, partial, multiway bool) (*plan.Plan, error) {
	p := plan.New(k)
	if err := p.AddNode(&plan.Node{ID: "input", Kind: plan.KindInput}); err != nil {
		return nil, err
	}
	frontier := "input"
	var included aliasSet
	joinSeq := 0
	nextJoin := func() string {
		joinSeq++
		return fmt.Sprintf("join%d", joinSeq)
	}
	for _, step := range t {
		if !step.Parallel() {
			top, err := f.addServiceChain(p, step.Group[0], frontier, included)
			if err != nil {
				return nil, err
			}
			frontier = top
			included |= f.bit[step.Group[0]]
			continue
		}
		// Add every member branch off the frontier, then merge: through
		// one n-ary multijoin node when asked for and the group is
		// eligible, left-deep binary joins otherwise.
		tops := make([]string, len(step.Group)) // top node of each branch (service or selection)
		for i, a := range step.Group {
			top, err := f.addServiceChain(p, a, frontier, included)
			if err != nil {
				return nil, err
			}
			tops[i] = top
		}
		included |= f.setOf(step.Group)
		if mw := f.multiway(step.Group); multiway && mw.ok {
			frontier = nextJoin()
			n := &plan.Node{
				ID: frontier, Kind: plan.KindMultiJoin,
				JoinSelectivity: mw.sel,
				JoinPreds:       mw.preds,
			}
			if err := p.AddNode(n); err != nil {
				return nil, err
			}
			for _, top := range tops {
				if err := p.Connect(top, frontier); err != nil {
					return nil, err
				}
			}
			continue
		}
		// The left side of the first join is a single service; from the
		// second join on it is the join below, which has no alias.
		frontier = tops[0]
		left, leftAlias := f.bit[step.Group[0]], step.Group[0]
		for i := 1; i < len(tops); i++ {
			right := f.bit[step.Group[i]]
			jf := f.join(left, right)
			n := &plan.Node{
				ID: nextJoin(), Kind: plan.KindJoin,
				Strategy:        chooseStrategy(f.stats, leftAlias, step.Group[i]),
				JoinSelectivity: jf.sel,
				JoinPreds:       jf.preds,
			}
			if err := p.AddNode(n); err != nil {
				return nil, err
			}
			if err := p.Connect(frontier, n.ID); err != nil {
				return nil, err
			}
			if err := p.Connect(tops[i], n.ID); err != nil {
				return nil, err
			}
			frontier, left, leftAlias = n.ID, left|right, ""
		}
	}
	if !partial {
		if err := p.AddNode(&plan.Node{ID: "output", Kind: plan.KindOutput}); err != nil {
			return nil, err
		}
		if err := p.Connect(frontier, "output"); err != nil {
			return nil, err
		}
		if err := p.Validate(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// hasMultiway reports whether any step of the topology takes the n-ary
// form, i.e. whether its multi-way plan differs from its binary one.
func (f *facts) hasMultiway(t Topology) bool {
	for _, step := range t {
		if f.multiway(step.Group).ok {
			return true
		}
	}
	return false
}

// multiway inspects a parallel group for n-ary eligibility. A group of
// three or more qualifies when its cross-predicate graph (one vertex per
// member, one edge per member pair related by at least one predicate) is
// cyclic — a tree of equalities gains nothing over a binary join cascade,
// while a cycle gives the n-ary intersection an extra pruning edge the
// left-deep tree can only apply after materializing an oversized
// intermediate — every member is touched by some edge, and the predicate
// set satisfies the multi-way legality rules (atomic equalities or
// bounded proximity, at least one equality). It returns the combined
// selectivity and the collected cross predicates.
func (f *facts) multiway(group []string) joinFacts {
	if len(group) < 3 {
		return joinFacts{}
	}
	key := f.setOf(group)
	if mw, ok := f.multi[key]; ok {
		return mw
	}
	mw := f.multiwayStep(group)
	f.multi[key] = mw
	return mw
}

func (f *facts) multiwayStep(group []string) joinFacts {
	sel := 1.0
	var preds []query.Predicate
	parent := make([]int, len(group))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	cyclic := false
	touched := make([]bool, len(group))
	for i := 0; i < len(group); i++ {
		for j := i + 1; j < len(group); j++ {
			jf := f.join(f.bit[group[i]], f.bit[group[j]])
			if len(jf.preds) == 0 {
				continue
			}
			sel *= jf.sel
			preds = append(preds, jf.preds...)
			touched[i], touched[j] = true, true
			if ri, rj := find(i), find(j); ri == rj {
				cyclic = true
			} else {
				parent[ri] = rj
			}
		}
	}
	if !cyclic {
		return joinFacts{}
	}
	for _, t := range touched {
		if !t {
			return joinFacts{}
		}
	}
	if join.LegalMultiway(preds) != nil {
		return joinFacts{}
	}
	return joinFacts{sel: sel, preds: preds, ok: true}
}

// addServiceChain adds the service node for alias (fed from the given
// upstream node) followed by a selection node for its residual output
// predicates, if any. It returns the topmost node added.
func (f *facts) addServiceChain(p *plan.Plan, alias, from string, included aliasSet) (string, error) {
	ref, ok := f.q.Service(alias)
	if !ok {
		return "", fmt.Errorf("optimizer: unknown alias %q", alias)
	}
	c := f.chain(alias, included)
	if !c.reachable {
		return "", fmt.Errorf("optimizer: alias %q not reachable at its step", alias)
	}
	st, ok := f.stats[alias]
	if !ok {
		return "", fmt.Errorf("optimizer: no statistics for alias %q", alias)
	}
	n := &plan.Node{
		ID: alias, Kind: plan.KindService, Alias: alias,
		Interface: ref.Interface, Stats: st,
		Bindings:        c.bindings,
		PipeSelectivity: c.pipeSel,
		// The connecting join predicates stay on the node. The engine
		// compiles out each atomic equality a pipe binding realizes (the
		// service answered the invocation bound to the upstream value)
		// and checks the rest per tuple when composing with the upstream
		// stream: other operators, repeating-group paths and the
		// conditions of sequential compositions of independent services.
		JoinPreds: c.connPreds,
	}
	if err := p.AddNode(n); err != nil {
		return "", err
	}
	if err := p.Connect(from, alias); err != nil {
		return "", err
	}
	if len(c.residual) == 0 {
		return alias, nil
	}
	sigma := &plan.Node{
		ID: "sigma_" + alias, Kind: plan.KindSelection,
		Selections: c.residual, Selectivity: c.selEstimate,
	}
	if err := p.AddNode(sigma); err != nil {
		return "", err
	}
	if err := p.Connect(alias, sigma.ID); err != nil {
		return "", err
	}
	return sigma.ID, nil
}

// connectionSelectivity estimates the selectivity of the join conditions
// connecting alias to the included aliases — the product of the
// selectivities of the connection patterns touching both sides plus the
// default selectivities of explicit join predicates — and collects those
// predicates so the plan node can evaluate them at execution time. An
// empty predicate list means a cartesian composition.
func connectionSelectivity(q *query.Query, alias string, included map[string]bool) (float64, []query.Predicate) {
	sel := 1.0
	var preds []query.Predicate
	for _, u := range q.Patterns {
		if u.Pattern == nil {
			continue
		}
		if (u.FromAlias == alias && included[u.ToAlias]) ||
			(u.ToAlias == alias && included[u.FromAlias]) {
			sel *= u.Pattern.Selectivity
			for _, j := range u.Pattern.Joins {
				preds = append(preds, query.Predicate{
					Left: query.PathRef{Alias: u.FromAlias, Path: j.From},
					Op:   types.OpEq,
					Right: query.Term{Kind: query.TermPath,
						Path: query.PathRef{Alias: u.ToAlias, Path: j.To}},
				})
			}
		}
	}
	for _, pr := range q.Predicates {
		if !pr.IsJoin() {
			continue
		}
		l, r := pr.Left.Alias, pr.Right.Path.Alias
		if (l == alias && included[r]) || (r == alias && included[l]) {
			sel *= pr.Op.Selectivity()
			preds = append(preds, pr)
		}
	}
	return sel, preds
}

// join estimates the selectivity of a parallel join between two alias
// sets, and collects the predicates it evaluates.
func (f *facts) join(left, right aliasSet) joinFacts {
	key := [2]aliasSet{left, right}
	if jf, ok := f.joins[key]; ok {
		return jf
	}
	across := func(a, b string) bool {
		x, y := f.bit[a], f.bit[b]
		return (left&x != 0 && right&y != 0) || (right&x != 0 && left&y != 0)
	}
	jf := joinFacts{sel: 1}
	for _, u := range f.q.Patterns {
		if u.Pattern == nil || !across(u.FromAlias, u.ToAlias) {
			continue
		}
		jf.sel *= u.Pattern.Selectivity
		for _, j := range u.Pattern.Joins {
			jf.preds = append(jf.preds, query.Predicate{
				Left: query.PathRef{Alias: u.FromAlias, Path: j.From},
				Right: query.Term{Kind: query.TermPath,
					Path: query.PathRef{Alias: u.ToAlias, Path: j.To}},
			})
		}
	}
	for _, pr := range f.q.Predicates {
		if pr.IsJoin() && across(pr.Left.Alias, pr.Right.Path.Alias) {
			jf.sel *= pr.Op.Selectivity()
			jf.preds = append(jf.preds, pr)
		}
	}
	f.joins[key] = jf
	return jf
}

// chooseStrategy applies the guidance of Section 4.3: nested loop with the
// step length h when the left side's scoring function exhibits a step,
// merge-scan otherwise; triangular completion when both sides are search
// services (approximating extraction-optimality), rectangular otherwise.
// Merge-scan ratios follow the services' per-call latencies (the variable
// inter-service ratio the chapter defers to Chapter 11's clocks): the
// cheaper side is fetched proportionally more often. A side that is
// itself a join has no alias ("") and so no statistics of its own.
func chooseStrategy(stats map[string]service.Stats, left, right string) join.Strategy {
	ls, lok := stats[left]
	rs, rok := stats[right]
	if lok {
		if h, stepped := ls.Scoring.HasStep(); stepped && ls.ChunkSize > 0 {
			chunks := (h + ls.ChunkSize - 1) / ls.ChunkSize
			if chunks < 1 {
				chunks = 1
			}
			return join.Strategy{Invocation: join.NestedLoop, Completion: join.Rectangular, H: chunks}
		}
	}
	comp := join.Rectangular
	if lok && rok && ls.Scoring.Kind != service.ScoringConstant && rs.Scoring.Kind != service.ScoringConstant {
		comp = join.Triangular
	}
	rx, ry := 1, 1
	if lok && rok {
		rx, ry = join.RatioFromCosts(ls.Latency.Seconds(), rs.Latency.Seconds(), 4)
	}
	return join.Strategy{Invocation: join.MergeScan, Completion: comp, RatioX: rx, RatioY: ry}
}
