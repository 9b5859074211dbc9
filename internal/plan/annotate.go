package plan

import (
	"fmt"
	"math"

	"seco/internal/join"
)

// Annotation carries the expected flow numbers of one node in a fully
// instantiated plan (Section 3.2, Figs. 3 and 10).
type Annotation struct {
	// TIn is the expected number of tuples entering the node.
	TIn float64
	// TOut is the expected number of tuples leaving the node.
	TOut float64
	// Fetches is the fetching factor of a chunked service node: chunks
	// fetched per invocation. Zero for other nodes.
	Fetches int
	// Calls is the expected number of request-responses issued by a
	// service node (invocations × fetches for chunked services).
	Calls float64
	// Candidates is, for join nodes, the number of candidate pairs the
	// join processes (after the completion-strategy reduction).
	Candidates float64
}

// Annotated is a fully instantiated plan: the plan plus per-node flow
// annotations computed for given fetching factors.
type Annotated struct {
	Plan *Plan
	// Ann maps node ID → its annotation.
	Ann map[string]Annotation
	// Fetches is the fetching-factor assignment the annotation used.
	Fetches map[string]int
}

// TriangularFactor is the analytical fraction of candidate pairs a
// triangular completion processes, following the worked example of
// Section 5.6 (2500 candidates → 1250 "most promising" combinations).
const TriangularFactor = 0.5

// MultiwayFactor is the analytical fraction of the candidate product a
// multi-way ranked join explores: the leapfrog-style sorted intersection
// skips candidate prefixes that cannot complete on every edge, pruning
// about as aggressively as one triangular completion — but applied once
// across all branches instead of compounding per binary join, which is
// exactly why a cyclic pattern annotates cheaper as one n-ary node than
// as any binary tree.
const MultiwayFactor = 0.5

// Annotate computes tin/tout/calls for every node given per-service
// fetching factors (chunks fetched per invocation; defaulting to 1 for
// chunked services without an entry, per Section 5.5). The plan must be
// valid.
func Annotate(p *Plan, fetches map[string]int) (*Annotated, error) {
	l, err := p.Layout()
	if err != nil {
		return nil, err
	}
	a := &Annotated{Plan: p, Ann: make(map[string]Annotation, len(l.Nodes)), Fetches: map[string]int{}}
	for _, n := range l.Nodes {
		if n.Kind != KindService || !n.Stats.Chunked() {
			continue
		}
		f := 1
		if v, ok := fetches[n.ID]; ok {
			if v < 1 {
				return nil, fmt.Errorf("plan: fetching factor %d for %q below 1", v, n.ID)
			}
			f = v
		}
		a.Fetches[n.ID] = f
	}
	a.evaluate(l, 0)
	return a, nil
}

// SetFetches changes the fetching factor of one chunked service node and
// re-derives, in place, the annotations from that node's position on:
// nothing earlier in the topological order can depend on it. The result
// equals a fresh Annotate of the changed assignment; a rejected call
// leaves the annotation as it was.
func (a *Annotated) SetFetches(id string, f int) error {
	l, err := a.Plan.Layout()
	if err != nil {
		return err
	}
	i, ok := l.pos[id]
	if !ok || l.Nodes[i].Kind != KindService || !l.Nodes[i].Stats.Chunked() {
		return fmt.Errorf("plan: fetching factor for %q, which is not a chunked service node", id)
	}
	if f < 1 {
		return fmt.Errorf("plan: fetching factor %d for %q below 1", f, id)
	}
	a.Fetches[id] = f
	a.evaluate(l, i)
	return nil
}

// evaluate applies the flow rules of Section 3.2 to the nodes from
// position from on, reading each chunked service's factor from Fetches
// and every input flow from the annotations of earlier positions.
func (a *Annotated) evaluate(l *Layout, from int) {
	for i := from; i < len(l.Nodes); i++ {
		n, preds := l.Nodes[i], l.Preds[i]
		var ann Annotation
		inFlow := 0.0
		for _, pr := range preds {
			inFlow += a.Ann[l.Nodes[pr].ID].TOut
		}
		switch n.Kind {
		case KindInput:
			// The user always injects one single input tuple.
			ann.TOut = 1
		case KindOutput:
			ann.TIn = inFlow
			ann.TOut = inFlow
		case KindSelection:
			ann.TIn = inFlow
			ann.TOut = inFlow * n.Selectivity
		case KindService:
			ann.TIn = inFlow
			f := 1
			yield := n.Stats.AvgCardinality
			if n.Stats.Chunked() {
				f = a.Fetches[n.ID]
				ann.Fetches = f
				yield = float64(n.Stats.ChunkSize * f)
				if n.Stats.AvgCardinality > 0 {
					yield = math.Min(yield, n.Stats.AvgCardinality)
				}
			}
			if n.Limit > 0 {
				yield = math.Min(yield, float64(n.Limit))
			}
			pipeSel := n.PipeSelectivity
			if pipeSel == 0 {
				pipeSel = 1
			}
			ann.TOut = ann.TIn * pipeSel * yield
			// Piped services (some input arrives per upstream tuple) are
			// invoked once per input tuple; services whose inputs are all
			// constants or INPUT variables are invoked exactly once, even
			// when placed in series after other services.
			invocations := 1.0
			if n.PipedFrom() {
				invocations = ann.TIn
			}
			ann.Calls = invocations * float64(f)
		case KindJoin:
			left, right := a.Ann[l.Nodes[preds[0]].ID].TOut, a.Ann[l.Nodes[preds[1]].ID].TOut
			factor := 1.0
			if n.Strategy.Completion == join.Triangular {
				factor = TriangularFactor
			}
			ann.Candidates = left * right * factor
			ann.TIn = left + right
			ann.TOut = ann.Candidates * n.JoinSelectivity
		case KindMultiJoin:
			// One n-ary node evaluates every cross-branch edge at once: the
			// sorted intersection skips candidate prefixes that cannot
			// complete on every edge (the Candidates side pays only the
			// MultiwayFactor fraction of the product), but it is lossless —
			// every combination satisfying all edges is emitted, so TOut
			// keeps the full product, where a binary tree surrenders a
			// completion factor of its output at each triangular join.
			product := 1.0
			for _, pr := range preds {
				product *= a.Ann[l.Nodes[pr].ID].TOut
			}
			ann.Candidates = product * MultiwayFactor
			ann.TIn = inFlow
			ann.TOut = product * n.JoinSelectivity
		}
		a.Ann[n.ID] = ann
	}
}

// Output returns the expected number of result combinations of the plan.
func (a *Annotated) Output() float64 {
	if l, err := a.Plan.Layout(); err == nil && l.Output >= 0 {
		return a.Ann[l.Nodes[l.Output].ID].TOut
	}
	return 0
}

// TotalCalls sums the expected request-responses over all service nodes,
// in plan order.
func (a *Annotated) TotalCalls() float64 {
	sum := 0.0
	if l, err := a.Plan.Layout(); err == nil {
		for _, n := range l.Nodes {
			if n.Kind == KindService {
				sum += a.Ann[n.ID].Calls
			}
		}
	}
	return sum
}

// MeetsK reports whether the annotated plan is expected to deliver at
// least K combinations.
func (a *Annotated) MeetsK() bool { return a.Output() >= float64(a.Plan.K) }

// RequiredOutputs back-propagates K through the plan (the "K can be
// back-propagated through the nodes of the plan" step of Section 5.6),
// returning for each node the number of output tuples it must produce for
// the plan to deliver K combinations. It inverts the forward rules:
// selections divide by their selectivity, piped services divide by pipe
// selectivity × per-input yield, joins divide by selectivity and the
// completion factor and split the candidate requirement evenly between
// their two inputs (each side must produce √candidates).
func RequiredOutputs(p *Plan) (map[string]float64, error) {
	order, err := p.TopoSort()
	if err != nil {
		return nil, err
	}
	req := make(map[string]float64, len(order))
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		n := p.nodes[id]
		if n.Kind == KindOutput {
			req[id] = float64(p.K)
			continue
		}
		// Requirement flows from the successors: take the max over them
		// (a node may feed several consumers).
		need := 0.0
		for _, s := range p.Successors(id) {
			var up float64
			sn := p.nodes[s]
			switch sn.Kind {
			case KindOutput:
				up = req[s]
			case KindSelection:
				up = req[s] / sn.Selectivity
			case KindService:
				pipeSel := sn.PipeSelectivity
				if pipeSel == 0 {
					pipeSel = 1
				}
				// The piped service needs enough input tuples:
				// req(service) / (pipeSel × yield-per-input); the yield
				// per input depends on the fetching factor chosen later,
				// so use one chunk as the conservative baseline.
				yield := sn.Stats.AvgCardinality
				if sn.Stats.Chunked() {
					yield = float64(sn.Stats.ChunkSize)
				}
				if sn.Limit > 0 {
					yield = math.Min(yield, float64(sn.Limit))
				}
				if yield <= 0 {
					yield = 1
				}
				up = req[s] / (pipeSel * yield)
			case KindJoin:
				factor := 1.0
				if sn.Strategy.Completion == join.Triangular {
					factor = TriangularFactor
				}
				candidates := req[s] / sn.JoinSelectivity / factor
				up = math.Sqrt(candidates)
			case KindMultiJoin:
				// The intersection is lossless, so the branch product only
				// needs to cover req/selectivity; split evenly over the N
				// branches: each must produce the N-th root.
				candidates := req[s] / sn.JoinSelectivity
				if nb := len(p.pred[s]); nb > 0 {
					up = math.Pow(candidates, 1/float64(nb))
				} else {
					up = candidates
				}
			}
			if up > need {
				need = up
			}
		}
		if n.Kind == KindInput && need < 1 {
			need = 1
		}
		req[id] = need
	}
	return req, nil
}
