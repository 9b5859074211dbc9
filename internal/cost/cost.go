// Package cost implements the cost metrics of Section 5.1 over fully
// instantiated (annotated) query plans: execution time, sum cost,
// request-response count, bottleneck and time-to-screen. Every metric is
// monotone — extending a plan or increasing fetching factors never lowers
// its cost — which is the property the branch-and-bound optimizer's
// pruning relies on: the cost of a partial plan is a valid lower bound for
// every plan that completes it.
package cost

import (
	"fmt"

	"seco/internal/plan"
)

// Metric maps an annotated plan to a non-negative cost. Lower is better.
type Metric interface {
	// Name identifies the metric in reports.
	Name() string
	// Cost evaluates the metric. The annotation may describe a partial
	// plan (prefix of a full plan); by monotonicity the result lower-
	// bounds the cost of every completion.
	Cost(a *plan.Annotated) float64
}

// ExecutionTime measures the expected elapsed seconds from submission to
// the production of the k-th answer: the slowest input-to-output path,
// where each service node contributes its expected request-responses ×
// latency and joins/selections are free main-memory work (the cost-model
// assumption of Section 4.1).
type ExecutionTime struct{}

// Name implements Metric.
func (ExecutionTime) Name() string { return "execution-time" }

// Cost implements Metric.
func (ExecutionTime) Cost(a *plan.Annotated) float64 {
	return slowestPath(a, func(n *plan.Node, ann plan.Annotation) float64 {
		if n.Kind != plan.KindService {
			return 0
		}
		return ann.Calls * n.Stats.Latency.Seconds()
	})
}

// TimeToScreen measures the expected seconds until the *first* output
// tuple: the slowest path where every service contributes a single
// request-response (its first chunk), suiting interactive settings.
type TimeToScreen struct{}

// Name implements Metric.
func (TimeToScreen) Name() string { return "time-to-screen" }

// Cost implements Metric.
func (TimeToScreen) Cost(a *plan.Annotated) float64 {
	return slowestPath(a, func(n *plan.Node, ann plan.Annotation) float64 {
		if n.Kind != plan.KindService || ann.Calls == 0 {
			return 0
		}
		return n.Stats.Latency.Seconds()
	})
}

// Sum adds the cost of every operator: service request-responses weighted
// by their per-call charge, plus an optional charge per join comparison
// (zero by default, matching the chapter's request-response-dominated
// scenario).
type Sum struct {
	// PerComparison charges each candidate pair a join processes.
	PerComparison float64
}

// Name implements Metric.
func (Sum) Name() string { return "sum" }

// Cost implements Metric.
func (m Sum) Cost(a *plan.Annotated) float64 {
	l, err := a.Plan.Layout()
	if err != nil {
		return 0
	}
	total := 0.0
	for _, n := range l.Nodes {
		switch n.Kind {
		case plan.KindService:
			total += a.Ann[n.ID].Calls * n.Stats.CostPerCall
		case plan.KindJoin, plan.KindMultiJoin:
			total += a.Ann[n.ID].Candidates * m.PerComparison
		}
	}
	return total
}

// RequestResponse is the special case of the sum metric that counts every
// service call with uniform cost 1: the number of request-responses, the
// dominant factor when network transfer dominates.
type RequestResponse struct{}

// Name implements Metric.
func (RequestResponse) Name() string { return "request-response" }

// Cost implements Metric.
func (RequestResponse) Cost(a *plan.Annotated) float64 { return a.TotalCalls() }

// Bottleneck is the metric of Srivastava et al. (WSMS): the execution time
// of the slowest single service in the plan, relevant for pipelined
// continuous queries. The chapter notes it is ill-suited to search
// services, which rarely produce all their tuples.
type Bottleneck struct{}

// Name implements Metric.
func (Bottleneck) Name() string { return "bottleneck" }

// Cost implements Metric.
func (Bottleneck) Cost(a *plan.Annotated) float64 {
	l, err := a.Plan.Layout()
	if err != nil {
		return 0
	}
	worst := 0.0
	for _, n := range l.Nodes {
		if n.Kind != plan.KindService {
			continue
		}
		if t := a.Ann[n.ID].Calls * n.Stats.Latency.Seconds(); t > worst {
			worst = t
		}
	}
	return worst
}

// slowestPath computes the maximum, over all input-to-output paths, of the
// summed node weights (longest path in the DAG), walking the plan's
// resolved layout; plans of up to 32 nodes need no allocation.
func slowestPath(a *plan.Annotated, weight func(*plan.Node, plan.Annotation) float64) float64 {
	l, err := a.Plan.Layout()
	if err != nil {
		return 0
	}
	var buf [32]float64
	best := buf[:0]
	if len(l.Nodes) > len(buf) {
		best = make([]float64, 0, len(l.Nodes))
	}
	overall := 0.0
	for i, n := range l.Nodes {
		in := 0.0
		for _, pr := range l.Preds[i] {
			if best[pr] > in {
				in = best[pr]
			}
		}
		best = append(best, in+weight(n, a.Ann[n.ID]))
		if best[i] > overall {
			overall = best[i]
		}
	}
	return overall
}

// ByName returns the metric with the given name.
func ByName(name string) (Metric, error) {
	switch name {
	case "execution-time":
		return ExecutionTime{}, nil
	case "time-to-screen":
		return TimeToScreen{}, nil
	case "sum":
		return Sum{}, nil
	case "request-response":
		return RequestResponse{}, nil
	case "bottleneck":
		return Bottleneck{}, nil
	default:
		return nil, fmt.Errorf("cost: unknown metric %q", name)
	}
}

// All returns every metric with default parameters, for comparisons.
func All() []Metric {
	return []Metric{ExecutionTime{}, Sum{}, RequestResponse{}, Bottleneck{}, TimeToScreen{}}
}
