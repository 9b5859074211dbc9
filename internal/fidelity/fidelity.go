// Package fidelity measures how well a plan's static annotations
// predicted what its execution actually did. The engine records per-node
// actuals (tuples in/out, request-responses, candidate pairs examined)
// into a Recorder; Assess joins those actuals against plan.Annotation
// and scores every node with the q-error of the cardinality-estimation
// literature: q = max(est/act, act/est), clamped below by Epsilon so
// zero-row nodes compare sanely. A per-plan Report carries the per-node
// rows, the worst offender, and a drift verdict — the future trigger for
// mid-query re-planning (ROADMAP item 4).
//
// Drift is one-sided by design: a node drifts only when its actual
// exceeds its estimate by more than the threshold factor.
// Overestimation is expected and benign here — the pull driver halts
// early and hash joins prune candidate pairs, so actuals legitimately
// undershoot the annotation. Underestimation is the direction that
// invalidates the optimizer's plan choice (the node was more expensive
// than the plan was costed for), so only that direction fires
// drift.detected.
package fidelity

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"seco/internal/obs"
	"seco/internal/plan"
	"seco/internal/plancheck"
)

// DefaultThreshold is the drift threshold used when a caller passes 0:
// a node drifts when its actual exceeds its estimate by more than this
// factor on any measured dimension.
const DefaultThreshold = 4.0

// Epsilon is the zero-row convention: both sides of a q-error ratio are
// clamped to at least Epsilon, so an estimated-empty node that produced
// nothing scores a perfect 1 instead of 0/0.
const Epsilon = 1.0

// QBuckets are the histogram bounds for q-error distributions. q is
// ≥ 1 by construction; the grid is dense near 1 (good estimates) and
// widens geometrically toward the badly mis-estimated tail.
var QBuckets = []float64{1, 1.5, 2, 3, 4, 6, 8, 16, 32, 64, 128}

// QError is the symmetric relative estimation error
// max(est/act, act/est), with both sides clamped to Epsilon.
func QError(est, act float64) float64 {
	if est < Epsilon {
		est = Epsilon
	}
	if act < Epsilon {
		act = Epsilon
	}
	if est >= act {
		return est / act
	}
	return act / est
}

// underFactor is the one-sided drift ratio: how many times the actual
// exceeded the estimate (≤ 1 when the node was overestimated).
func underFactor(est, act float64) float64 {
	if est < Epsilon {
		est = Epsilon
	}
	if act < Epsilon {
		act = Epsilon
	}
	return act / est
}

// Counter is a nil-safe atomic tally, mirroring obs.Counter: operators
// record into it unconditionally, and a nil counter (fidelity disabled)
// costs one predictable branch and zero allocations.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter; no-op on nil.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value reads the counter (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Recorder hands out one candidate counter per plan node for a single
// run. All counters come from a slab sized once at compile time, so the
// enabled path allocates O(nodes) up front and nothing per Next; a nil
// Recorder hands out nil counters, keeping the disabled path zero-alloc
// (the obs.Tracer pattern). Counter is called during graph compilation
// only and is not safe for concurrent use; the counters it returns are.
type Recorder struct {
	slab  []Counter
	index map[string]*Counter
}

// NewRecorder pre-sizes the slab for a plan with the given node count.
func NewRecorder(nodes int) *Recorder {
	return &Recorder{
		slab:  make([]Counter, 0, nodes),
		index: make(map[string]*Counter, nodes),
	}
}

// Counter returns (creating if needed) the node's candidate counter;
// nil on a nil Recorder.
func (r *Recorder) Counter(node string) *Counter {
	if r == nil {
		return nil
	}
	if c, ok := r.index[node]; ok {
		return c
	}
	var c *Counter
	if len(r.slab) < cap(r.slab) {
		r.slab = r.slab[:len(r.slab)+1]
		c = &r.slab[len(r.slab)-1]
	} else {
		c = &Counter{}
	}
	r.index[node] = c
	return c
}

// Value reads a node's counter (0 when absent or on a nil Recorder).
func (r *Recorder) Value(node string) int64 {
	if r == nil {
		return 0
	}
	return r.index[node].Value()
}

// Actuals is what one compiled operator measured during a run.
type Actuals struct {
	// Node is the plan-node ID, Kind the plancheck operator kind
	// ("scan", "pipe", "join", "multijoin", "selection", "input").
	Node string
	Kind string
	// TuplesIn/TuplesOut are the combinations that entered/left the node.
	TuplesIn  float64
	TuplesOut float64
	// Fetches counts the request-responses a service node issued.
	Fetches float64
	// Candidates counts the candidate combinations the node examined:
	// pairs visited by a join, prefixes expanded by the multi-way join,
	// compose attempts of a service node.
	Candidates float64
}

// NodeFidelity is one node's estimate-vs-actual row. Calls columns are
// meaningful for service kinds (scan/pipe), candidate columns for join
// kinds; undefined dimensions carry zero q and render as "-".
type NodeFidelity struct {
	Node string `json:"node"`
	Kind string `json:"kind"`

	EstOut float64 `json:"est_out"`
	ActOut float64 `json:"act_out"`
	QOut   float64 `json:"q_out"`

	EstCalls float64 `json:"est_calls,omitempty"`
	ActCalls float64 `json:"act_calls,omitempty"`
	QCalls   float64 `json:"q_calls,omitempty"`

	EstCand float64 `json:"est_cand,omitempty"`
	ActCand float64 `json:"act_cand,omitempty"`
	QCand   float64 `json:"q_cand,omitempty"`

	// Q is the node's q-error: the worst q over its defined dimensions.
	Q float64 `json:"q"`
	// Drift reports that the actual exceeded the estimate by more than
	// the report's threshold on some dimension (one-sided; see the
	// package comment).
	Drift bool `json:"drift,omitempty"`
}

// serviceKind reports whether the calls dimension is defined.
func serviceKind(kind string) bool {
	return kind == plancheck.OpScan || kind == plancheck.OpPipe
}

// joinKind reports whether the candidates dimension is defined.
func joinKind(kind string) bool {
	return kind == plancheck.OpJoin || kind == plancheck.OpMultiJoin
}

// Report is the plan-level fidelity verdict of one run.
type Report struct {
	// Threshold is the drift factor the report was assessed with.
	Threshold float64 `json:"threshold"`
	// Nodes holds one row per compiled operator, sorted by node ID.
	Nodes []NodeFidelity `json:"nodes"`
	// Drifted counts the nodes whose actuals exceeded their estimates by
	// more than Threshold.
	Drifted int `json:"drifted"`
	// MaxQ/MaxNode identify the worst-estimated node of the plan.
	MaxQ    float64 `json:"max_q"`
	MaxNode string  `json:"max_node,omitempty"`
}

// Assess joins per-node actuals against the plan's annotations and
// scores every node. threshold ≤ 0 selects DefaultThreshold. Nodes
// without an annotation entry are skipped; rows come back sorted by
// node ID, so equal inputs produce identical reports.
func Assess(ann *plan.Annotated, acts []Actuals, threshold float64) *Report {
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	rows := append([]Actuals(nil), acts...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Node < rows[j].Node })
	rep := &Report{Threshold: threshold}
	for _, a := range rows {
		est, ok := ann.Ann[a.Node]
		if !ok {
			continue
		}
		nf := NodeFidelity{
			Node: a.Node, Kind: a.Kind,
			EstOut: est.TOut, ActOut: a.TuplesOut,
		}
		nf.QOut = QError(nf.EstOut, nf.ActOut)
		nf.Q = nf.QOut
		drift := underFactor(nf.EstOut, nf.ActOut) > threshold
		if serviceKind(a.Kind) {
			nf.EstCalls, nf.ActCalls = est.Calls, a.Fetches
			nf.QCalls = QError(nf.EstCalls, nf.ActCalls)
			if nf.QCalls > nf.Q {
				nf.Q = nf.QCalls
			}
			drift = drift || underFactor(nf.EstCalls, nf.ActCalls) > threshold
		}
		if joinKind(a.Kind) {
			nf.EstCand, nf.ActCand = est.Candidates, a.Candidates
			nf.QCand = QError(nf.EstCand, nf.ActCand)
			if nf.QCand > nf.Q {
				nf.Q = nf.QCand
			}
			drift = drift || underFactor(nf.EstCand, nf.ActCand) > threshold
		}
		nf.Drift = drift
		if drift {
			rep.Drifted++
		}
		if nf.Q > rep.MaxQ {
			rep.MaxQ, rep.MaxNode = nf.Q, nf.Node
		}
		rep.Nodes = append(rep.Nodes, nf)
	}
	return rep
}

// Publish records the report into the registry: one q-error histogram
// per operator kind, a per-kind worst-node gauge (milli-q, so the
// integer gauge keeps three decimals), and the drift counter. Nil-safe
// on both sides.
func (r *Report) Publish(reg *obs.Registry) {
	if r == nil || reg == nil {
		return
	}
	worst := map[string]float64{}
	for _, nf := range r.Nodes {
		reg.Histogram("seco.fidelity.qerror."+nf.Kind, QBuckets).Observe(nf.Q)
		if nf.Q > worst[nf.Kind] {
			worst[nf.Kind] = nf.Q
		}
	}
	kinds := make([]string, 0, len(worst))
	for k := range worst {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		reg.Gauge("seco.fidelity.worst_q_milli." + k).Set(int64(worst[k]*1000 + 0.5))
	}
	reg.Counter("seco.fidelity.drift.detected").Add(int64(r.Drifted))
}

// Fnum renders an estimate/actual/q value compactly ('g' with 6
// significant digits), matching the engine's trace-attribute format.
func Fnum(f float64) string { return strconv.FormatFloat(f, 'g', 6, 64) }

// Text renders the report as a deterministic fixed-width table plus a
// one-line summary, suitable for goldens and the serving layer's text
// endpoint. Undefined dimensions render as "-".
func (r *Report) Text() string {
	if r == nil {
		return ""
	}
	header := []string{"node", "kind", "est-out", "act-out", "q-out",
		"est-calls", "act-calls", "q-calls", "est-cand", "act-cand", "q-cand", "drift"}
	rows := make([][]string, 0, len(r.Nodes))
	for _, nf := range r.Nodes {
		row := []string{nf.Node, nf.Kind, Fnum(nf.EstOut), Fnum(nf.ActOut), Fnum(nf.QOut),
			"-", "-", "-", "-", "-", "-", "no"}
		if serviceKind(nf.Kind) {
			row[5], row[6], row[7] = Fnum(nf.EstCalls), Fnum(nf.ActCalls), Fnum(nf.QCalls)
		}
		if joinKind(nf.Kind) {
			row[8], row[9], row[10] = Fnum(nf.EstCand), Fnum(nf.ActCand), Fnum(nf.QCand)
		}
		if nf.Drift {
			row[11] = "DRIFT"
		}
		rows = append(rows, row)
	}
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		b.WriteString(strings.TrimRight(strings.Join(parts, "  "), " "))
		b.WriteString("\n")
	}
	line(header)
	for _, row := range rows {
		line(row)
	}
	fmt.Fprintf(&b, "threshold=%s drifted=%d max_q=%s", Fnum(r.Threshold), r.Drifted, Fnum(r.MaxQ))
	if r.MaxNode != "" {
		fmt.Fprintf(&b, " (%s)", r.MaxNode)
	}
	b.WriteString("\n")
	return b.String()
}
