// Package plancheck is a semantic analyzer over plan.Plan: it verifies
// the invariants the execution engine's correctness arguments take for
// granted — DAG acyclicity, single-input/single-output topology, binding
// coverage (every piped input produced by an upstream service), strategy
// legality per node kind, chunk-flow consistency against the annotation
// engine, and the monotone non-negative ranking weights required by the
// streaming executor's top-k threshold bound — and reports violations as
// structured diagnostics rather than a bare error.
//
// plan.Validate remains the cheap structural gate used while plans are
// being built; plancheck is the pre-execution verifier: the optimizer
// asserts its outputs with it, the engine refuses plans that fail it (see
// engine.PrepareOptions.SkipValidate), and plancheck.Unmarshal guards plans
// loaded from JSON.
package plancheck

import (
	"fmt"
	"strings"

	"seco/internal/join"
	"seco/internal/plan"
	"seco/internal/query"
)

// Severity grades a diagnostic.
type Severity int

const (
	// Error marks an invariant violation that makes execution unsound or
	// impossible; the engine refuses plans with Error diagnostics.
	Error Severity = iota
	// Warning marks a suspicious construct that does not compromise
	// soundness (the engine degrades gracefully) but likely defeats the
	// plan's intent.
	Warning
)

// String names the severity.
func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warning"
}

// Diagnostic codes. The broken-plan corpus in plancheck_test.go pins one
// corpus entry to each code; DESIGN.md documents the catalogue.
const (
	// CodeStructure: K, node arities, input/output uniqueness.
	CodeStructure = "plan-structure"
	// CodeCycle: the plan graph is not a DAG.
	CodeCycle = "plan-cycle"
	// CodeConnectivity: a node is unreachable from the input node or
	// cannot reach the output node.
	CodeConnectivity = "plan-connectivity"
	// CodeStats: a service node carries invalid statistics or an
	// out-of-range selectivity.
	CodeStats = "plan-stats"
	// CodeStrategy: an illegal join strategy, or strategy parameters on a
	// node kind that ignores them.
	CodeStrategy = "plan-strategy"
	// CodeBinding: an input attribute of a service invocation is not
	// covered, or a piped binding's source service is not an ancestor.
	CodeBinding = "plan-binding"
	// CodeFetch: a fetching-factor assignment that contradicts the plan's
	// chunk structure, or an annotation inconsistent with plan.Annotate.
	CodeFetch = "plan-fetch"
	// CodeWeights: ranking weights that violate the monotone-bound
	// requirement of top-k early termination, or weights referencing
	// aliases absent from the plan.
	CodeWeights = "plan-weights"
	// CodeRoundTrip: the plan does not survive a JSON round-trip.
	CodeRoundTrip = "plan-roundtrip"
	// CodeMultiJoin: a multi-way join node violates the n-ary legality
	// rules — a cross-branch predicate outside the atomic-equality /
	// bounded-proximity classes, a branch not bound by any cross
	// predicate, or a predicate that does not span two branches.
	CodeMultiJoin = "plan-multijoin"
	// CodeJoin: a binary join's predicate does not span its two inputs —
	// it references an alias neither input produces, or two aliases of
	// the same input — so no pair of rows would ever evaluate it.
	CodeJoin = "plan-join"
)

// Diagnostic is one verified violation.
type Diagnostic struct {
	// Code is one of the Code* constants.
	Code string
	// Node is the offending plan node ID ("" for plan-level findings).
	Node string
	// Severity grades the finding.
	Severity Severity
	// Message describes the violation.
	Message string
}

// String renders "code node: severity: message".
func (d Diagnostic) String() string {
	loc := d.Code
	if d.Node != "" {
		loc += " " + d.Node
	}
	return fmt.Sprintf("%s: %s: %s", loc, d.Severity, d.Message)
}

// Report collects the diagnostics of one check.
type Report struct {
	Diags []Diagnostic
}

func (r *Report) add(code, node string, sev Severity, format string, args ...any) {
	r.Diags = append(r.Diags, Diagnostic{
		Code: code, Node: node, Severity: sev,
		Message: fmt.Sprintf(format, args...),
	})
}

// Merge appends the diagnostics of another report.
func (r *Report) Merge(o *Report) {
	if o != nil {
		r.Diags = append(r.Diags, o.Diags...)
	}
}

// Errors returns the Error-severity diagnostics.
func (r *Report) Errors() []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diags {
		if d.Severity == Error {
			out = append(out, d)
		}
	}
	return out
}

// OK reports whether the plan passed (no Error diagnostics; warnings are
// allowed).
func (r *Report) OK() bool { return len(r.Errors()) == 0 }

// HasCode reports whether any diagnostic carries the given code.
func (r *Report) HasCode(code string) bool {
	for _, d := range r.Diags {
		if d.Code == code {
			return true
		}
	}
	return false
}

// Err aggregates the Error diagnostics into a single error, or nil when
// the plan passed.
func (r *Report) Err() error {
	errs := r.Errors()
	if len(errs) == 0 {
		return nil
	}
	parts := make([]string, len(errs))
	for i, d := range errs {
		parts[i] = d.String()
	}
	return fmt.Errorf("plancheck: %s", strings.Join(parts, "; "))
}

// Check verifies the static invariants of a plan and returns every
// violation found. It never panics, whatever the input: malformed graphs
// (as produced by hand or by UnmarshalPlan, which performs no semantic
// validation) yield diagnostics instead.
func Check(p *plan.Plan) *Report {
	r := &Report{}
	if p == nil {
		r.add(CodeStructure, "", Error, "plan is nil")
		return r
	}
	checkStructure(p, r)
	order, err := p.TopoSort()
	if err != nil {
		r.add(CodeCycle, "", Error, "%v", err)
		// Everything below needs a topological order; stop here.
		return r
	}
	checkConnectivity(p, order, r)
	checkBindings(p, r)
	if r.OK() {
		// The annotation engine assumes the arities verified above
		// (e.g. joins with exactly two predecessors); only consult it on
		// plans that are structurally sound so far.
		if _, err := plan.Annotate(p, nil); err != nil {
			r.add(CodeFetch, "", Error, "annotation: %v", err)
		}
	}
	return r
}

// checkStructure verifies K, node-kind arities and per-node parameters —
// the diagnostics counterpart of plan.Validate's structural gate, plus the
// strategy-legality-per-kind rules Validate does not cover.
func checkStructure(p *plan.Plan, r *Report) {
	if p.K <= 0 {
		r.add(CodeStructure, "", Error, "K must be positive, got %d", p.K)
	}
	var inputs, outputs int
	for _, id := range p.NodeIDs() {
		n, _ := p.Node(id)
		preds, succs := p.Predecessors(id), p.Successors(id)
		switch n.Kind {
		case plan.KindInput:
			inputs++
			if len(preds) != 0 {
				r.add(CodeStructure, id, Error, "input node has %d predecessors", len(preds))
			}
		case plan.KindOutput:
			outputs++
			if len(succs) != 0 {
				r.add(CodeStructure, id, Error, "output node has %d successors", len(succs))
			}
			if len(preds) != 1 {
				r.add(CodeStructure, id, Error, "output node needs exactly one predecessor, has %d", len(preds))
			}
		case plan.KindJoin:
			if len(preds) != 2 {
				r.add(CodeStructure, id, Error, "join node needs exactly two predecessors, has %d", len(preds))
			}
			if err := n.Strategy.Validate(); err != nil {
				r.add(CodeStrategy, id, Error, "%v", err)
			}
			if n.JoinSelectivity <= 0 || n.JoinSelectivity > 1 {
				r.add(CodeStats, id, Error, "join selectivity %v out of (0,1]", n.JoinSelectivity)
			}
			checkJoinSpan(p, n, id, CodeJoin, r)
		case plan.KindMultiJoin:
			if len(preds) < 2 {
				r.add(CodeStructure, id, Error, "multijoin node needs at least two predecessors, has %d", len(preds))
			}
			if n.JoinSelectivity <= 0 || n.JoinSelectivity > 1 {
				r.add(CodeStats, id, Error, "multijoin selectivity %v out of (0,1]", n.JoinSelectivity)
			}
			checkStrategyUnused(n, id, r)
			checkMultiJoin(p, n, id, r)
		case plan.KindService:
			if len(preds) != 1 {
				r.add(CodeStructure, id, Error, "service node needs exactly one predecessor, has %d", len(preds))
			}
			if n.Interface == nil {
				r.add(CodeStructure, id, Error, "service node has no interface")
			}
			if n.Alias == "" {
				r.add(CodeStructure, id, Error, "service node has no alias")
			}
			if err := n.Stats.Validate(); err != nil {
				r.add(CodeStats, id, Error, "%v", err)
			}
			if n.PipeSelectivity < 0 || n.PipeSelectivity > 1 {
				r.add(CodeStats, id, Error, "pipe selectivity %v out of [0,1]", n.PipeSelectivity)
			}
			if n.Limit < 0 {
				r.add(CodeStats, id, Error, "negative per-invocation limit %d", n.Limit)
			}
			checkStrategyUnused(n, id, r)
		case plan.KindSelection:
			if len(preds) != 1 {
				r.add(CodeStructure, id, Error, "selection node needs exactly one predecessor, has %d", len(preds))
			}
			if n.Selectivity <= 0 || n.Selectivity > 1 {
				r.add(CodeStats, id, Error, "selection selectivity %v out of (0,1]", n.Selectivity)
			}
			checkStrategyUnused(n, id, r)
		default:
			r.add(CodeStructure, id, Error, "unknown node kind %d", int(n.Kind))
		}
	}
	if inputs != 1 {
		r.add(CodeStructure, "", Error, "need exactly one input node, have %d", inputs)
	}
	if outputs != 1 {
		r.add(CodeStructure, "", Error, "need exactly one output node, have %d", outputs)
	}
	// Service aliases must be unique: the engine keys counters, weights
	// and combination components by alias.
	byAlias := map[string]string{}
	for _, id := range p.NodeIDs() {
		n, _ := p.Node(id)
		if n.Kind != plan.KindService || n.Alias == "" {
			continue
		}
		if prev, dup := byAlias[n.Alias]; dup {
			r.add(CodeStructure, id, Error, "alias %q already used by node %q", n.Alias, prev)
			continue
		}
		byAlias[n.Alias] = id
	}
}

// checkStrategyUnused flags parallel-join strategy parameters on node
// kinds that ignore them — a sign the plan author confused pipe and
// parallel placement.
func checkStrategyUnused(n *plan.Node, id string, r *Report) {
	s := n.Strategy
	if s.Invocation != 0 || s.Completion != 0 || s.H != 0 || s.RatioX != 0 || s.RatioY != 0 || s.FlushOnExhaust {
		r.add(CodeStrategy, id, Warning,
			"%s node carries a parallel-join strategy (%s), which only join nodes use", n.Kind, s)
	}
}

// checkMultiJoin verifies the n-ary legality rules on a multi-way join
// node: every cross-branch predicate must be an atomic equality or
// bounded proximity (with at least one equality edge, the posting-list
// key), every predicate must span two branches, and every branch must be
// bound by at least one legal cross predicate — an unbound branch would
// degenerate into a cross product the ranked intersection cannot bound.
func checkMultiJoin(p *plan.Plan, n *plan.Node, id string, r *Report) {
	if err := join.LegalMultiway(n.JoinPreds); err != nil {
		r.add(CodeMultiJoin, id, Error, "%v", err)
	}
	branches := checkJoinSpan(p, n, id, CodeMultiJoin, r)
	if branches == nil {
		return // arity already a CodeStructure error
	}
	for _, i := range join.CoverMultiway(branches, n.JoinPreds) {
		r.add(CodeMultiJoin, id, Error,
			"branch %q is not bound by any cross-branch predicate", p.Predecessors(id)[i])
	}
}

// checkJoinSpan verifies that every cross predicate of a join node
// relates two of its branches: both aliases must be produced by some
// branch, and by different ones. An alias several branches share counts
// as the last one's, as in the engine's edge table. It returns each
// branch's alias set, nil when the node has fewer than two branches.
func checkJoinSpan(p *plan.Plan, n *plan.Node, id, code string, r *Report) []map[string]bool {
	preds := p.Predecessors(id)
	if len(preds) < 2 {
		return nil
	}
	branches := make([]map[string]bool, len(preds))
	branchOf := map[string]int{}
	for i, pr := range preds {
		branches[i] = branchAliases(p, pr)
		for a := range branches[i] {
			branchOf[a] = i
		}
	}
	for _, jp := range n.JoinPreds {
		if jp.Right.Kind != query.TermPath {
			continue // not a cross predicate
		}
		l, lok := branchOf[jp.Left.Alias]
		rb, rok := branchOf[jp.Right.Path.Alias]
		if !lok {
			r.add(code, id, Error, "predicate %s references alias %q, which no branch produces", jp, jp.Left.Alias)
		}
		if !rok {
			r.add(code, id, Error, "predicate %s references alias %q, which no branch produces", jp, jp.Right.Path.Alias)
		}
		if lok && rok && l == rb {
			r.add(code, id, Error, "predicate %s does not span two branches", jp)
		}
	}
	return branches
}

// branchAliases returns the aliases of the service nodes in one branch of
// a join: the branch root itself plus everything upstream.
func branchAliases(p *plan.Plan, id string) map[string]bool {
	out := ancestorAliases(p, id)
	if n, ok := p.Node(id); ok && n.Kind == plan.KindService {
		out[n.Alias] = true
	}
	return out
}

// checkConnectivity verifies that every node lies on an input → output
// path.
func checkConnectivity(p *plan.Plan, order []string, r *Report) {
	reach := map[string]bool{}
	for _, id := range order {
		n, _ := p.Node(id)
		if n.Kind == plan.KindInput || anyIn(reach, p.Predecessors(id)) {
			reach[id] = true
		}
	}
	coreach := map[string]bool{}
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		n, _ := p.Node(id)
		if n.Kind == plan.KindOutput || anyIn(coreach, p.Successors(id)) {
			coreach[id] = true
		}
	}
	for _, id := range order {
		if !reach[id] {
			r.add(CodeConnectivity, id, Error, "node not reachable from the input node")
		}
		if !coreach[id] {
			r.add(CodeConnectivity, id, Error, "node cannot reach the output node")
		}
	}
}

func anyIn(set map[string]bool, ids []string) bool {
	for _, id := range ids {
		if set[id] {
			return true
		}
	}
	return false
}

// checkBindings verifies binding coverage for every service invocation:
// each input path of the bound interface must be covered by a binding, no
// path may be bound twice (the engine gives each path one input
// position), and each piped (BindJoin) binding must be fed by a service
// node that is a strict ancestor in the DAG — otherwise the invocation
// would block on a value no upstream node produces.
func checkBindings(p *plan.Plan, r *Report) {
	for _, id := range p.NodeIDs() {
		n, _ := p.Node(id)
		if n.Kind != plan.KindService {
			continue
		}
		anc := ancestorAliases(p, id)
		covered := map[string]bool{}
		for _, b := range n.Bindings {
			if covered[b.Path] {
				r.add(CodeBinding, id, Error, "input %q bound twice", b.Path)
			}
			covered[b.Path] = true
			if b.Source.Kind != query.BindJoin {
				continue
			}
			from := b.Source.From.Alias
			if from == n.Alias {
				r.add(CodeBinding, id, Error, "input %q piped from the node's own alias %q", b.Path, from)
				continue
			}
			if !anc[from] {
				r.add(CodeBinding, id, Error,
					"input %q piped from %q, which is not an upstream service of this node", b.Path, from)
			}
		}
		if n.Interface == nil {
			continue // already a CodeStructure error
		}
		for _, in := range n.Interface.InputPaths() {
			if !covered[in] {
				r.add(CodeBinding, id, Error,
					"input attribute %q of interface %s has no binding", in, n.Interface.Name)
			}
		}
	}
}

// ancestorAliases returns the aliases of every service node upstream of
// the given node.
func ancestorAliases(p *plan.Plan, id string) map[string]bool {
	out := map[string]bool{}
	seen := map[string]bool{}
	stack := append([]string(nil), p.Predecessors(id)...)
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[cur] {
			continue
		}
		seen[cur] = true
		if n, ok := p.Node(cur); ok && n.Kind == plan.KindService {
			out[n.Alias] = true
		}
		stack = append(stack, p.Predecessors(cur)...)
	}
	return out
}

// CheckAnnotated verifies a fully instantiated plan: the plan invariants
// plus chunk-flow consistency — the fetching-factor assignment must refer
// to chunked service nodes with factors ≥ 1, and the stored annotations
// must agree with what plan.Annotate computes for that assignment (a stale
// or hand-edited annotation would desynchronize the cost model from the
// execution).
func CheckAnnotated(a *plan.Annotated) *Report {
	r := &Report{}
	if a == nil || a.Plan == nil {
		r.add(CodeStructure, "", Error, "annotated plan is nil")
		return r
	}
	r.Merge(Check(a.Plan))
	for id, f := range a.Fetches {
		n, ok := a.Plan.Node(id)
		switch {
		case !ok:
			r.add(CodeFetch, id, Error, "fetching factor for unknown node")
		case n.Kind != plan.KindService:
			r.add(CodeFetch, id, Error, "fetching factor on a %s node", n.Kind)
		case !n.Stats.Chunked():
			r.add(CodeFetch, id, Error, "fetching factor %d on a non-chunked service", f)
		case f < 1:
			r.add(CodeFetch, id, Error, "fetching factor %d below 1", f)
		}
	}
	if !r.OK() {
		return r
	}
	fresh, err := plan.Annotate(a.Plan, a.Fetches)
	if err != nil {
		r.add(CodeFetch, "", Error, "annotation: %v", err)
		return r
	}
	const tol = 1e-6
	for _, id := range a.Plan.NodeIDs() {
		got, want := a.Ann[id], fresh.Ann[id]
		if !closeEnough(got.TIn, want.TIn, tol) || !closeEnough(got.TOut, want.TOut, tol) ||
			!closeEnough(got.Calls, want.Calls, tol) || got.Fetches != want.Fetches {
			r.add(CodeFetch, id, Error,
				"stale annotation: stored (tin=%g tout=%g calls=%g fetches=%d), recomputed (tin=%g tout=%g calls=%g fetches=%d)",
				got.TIn, got.TOut, got.Calls, got.Fetches, want.TIn, want.TOut, want.Calls, want.Fetches)
		}
	}
	return r
}

func closeEnough(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := 1.0
	if b > 1 || b < -1 {
		if b < 0 {
			scale = -b
		} else {
			scale = b
		}
	}
	return d <= tol*scale
}

// Exec describes one intended execution of a plan, for CheckExec.
type Exec struct {
	// Weights is the ranking function (alias → weight).
	Weights map[string]float64
	// TargetK is the requested top-K truncation (0 = full drain).
	TargetK int
	// Streaming reports whether the streaming executor (with its top-k
	// early-termination bound) will run; the materializing baseline ranks
	// after a full drain and needs no monotonicity.
	Streaming bool
	// Degrade reports that graceful degradation to partial results was
	// requested; only the streaming executor can honour it.
	Degrade bool
}

// CheckExec verifies the execution-time parameters against the plan: the
// top-k threshold bound of the streaming executor is only sound for
// monotone ranking functions, i.e. non-negative weights, so a negative
// weight combined with TargetK under streaming is an error. Weights
// referencing aliases absent from the plan are flagged as warnings (they
// silently contribute nothing).
func CheckExec(p *plan.Plan, e Exec) *Report {
	r := &Report{}
	if p == nil {
		r.add(CodeStructure, "", Error, "plan is nil")
		return r
	}
	if e.TargetK < 0 {
		r.add(CodeWeights, "", Error, "negative TargetK %d", e.TargetK)
	}
	if e.Degrade && !e.Streaming {
		r.add(CodeStructure, "", Warning,
			"Degrade requested under the materializing executor, which has no partial state to return; failures will surface as errors")
	}
	aliases := map[string]bool{}
	for _, id := range p.NodeIDs() {
		if n, _ := p.Node(id); n.Kind == plan.KindService {
			aliases[n.Alias] = true
		}
	}
	for alias, w := range e.Weights {
		if w < 0 && e.TargetK > 0 && e.Streaming {
			r.add(CodeWeights, "", Error,
				"negative weight %g for alias %q breaks the monotone top-%d stopping bound", w, alias, e.TargetK)
		}
		if !aliases[alias] {
			r.add(CodeWeights, "", Warning, "weight for alias %q, which no service node produces", alias)
		}
	}
	return r
}
