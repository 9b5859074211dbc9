package engine

import (
	"context"
	"sort"
	"strconv"
	"strings"
	"time"

	"seco/internal/obs"
	"seco/internal/types"
)

// This file implements the two driver policies over the compiled operator
// graph. A driver owns the root pull loop and the teardown discipline
// (cancel the pull context, wait for every pipeline goroutine, close the
// operators output side first); the operators themselves are policy-free.
//
//   - runDrain (Options.Materialize) pulls the root to exhaustion, ranks,
//     and truncates — the materialize-then-truncate baseline. It never
//     stops early and never degrades: a failure or budget expiry surfaces
//     as the run error.
//   - runPull (the default) is the K-bounded pull: it maintains the K-th
//     best score pulled so far and halts as soon as that score reaches
//     the root's bound — no unseen combination can then enter the top-K —
//     and, under Options.Degrade, turns mid-run failures into partial
//     results with a certified prefix. It shares that score with the root
//     reader as the run's floor: a root service reader skips candidates
//     below it and runs the stopping test itself (serviceOp.skip).
//
// The drivers are the materialization boundary of the compact runtime:
// combs are sorted and truncated in compact form, and only the surviving
// top-K are converted back to map-backed Combinations — inside the driver
// body, before the deferred teardown releases the operator arenas the
// combs live in.

// runDrain is the eager-drain driver policy: evaluate everything the
// fetch budgets reach, rank, then truncate.
func (ex *executor) runDrain(ctx context.Context, g *graph, start time.Time) (*Run, error) {
	runSc := ex.run.Trace.Scope("run")
	endRun := runSc.StartTimed("run", obs.KindRun, obs.KV("policy", "drain"))
	pullCtx, cancel := context.WithCancel(ctx)
	defer func() {
		cancel()
		g.wg.Wait()
		g.shutdown()
	}()
	if err := g.root.Open(pullCtx); err != nil {
		return nil, err
	}
	best := ex.best
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c, err := g.root.Next(pullCtx)
		if err != nil {
			return nil, err
		}
		if c == nil {
			break
		}
		best.push(c)
	}
	// Stop the prefetchers and wait for every pipeline goroutine before
	// reading the counters.
	cancel()
	g.wg.Wait()

	fid := ex.assessFidelity(g)
	res := ex.materialize(best.ranked())
	run := ex.newRun(g, res, best.pulled, start, false)
	run.Fidelity = fid
	endRun(run.Elapsed, obs.KI("combinations", int64(len(res))), obs.KI("pulled", int64(best.pulled)))
	return run, nil
}

// runPull is the K-bounded pull driver policy. With a TargetK and
// non-negative weights it maintains the K-th best score pulled so far and
// halts as soon as that score reaches the root's bound, so the result
// equals the full drain's top-K while the undone part of the search space
// is never paid for. Under Options.Degrade, a service failure or budget
// expiry ends the pull early with a partial result instead of an error
// (see degrade.go).
func (ex *executor) runPull(ctx context.Context, g *graph, start time.Time) (*Run, error) {
	runSc := ex.run.Trace.Scope("run")
	endRun := runSc.StartTimed("run", obs.KindRun, obs.KV("policy", "pull"))
	pullCtx, cancel := context.WithCancel(ctx)
	defer func() {
		cancel()
		g.wg.Wait()
		g.shutdown()
	}()
	if err := g.root.Open(pullCtx); err != nil {
		return nil, err
	}

	budget, best := ex.budget, ex.best
	var deg *Degradation
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if budget != nil {
			if err := budget(); err != nil {
				d, ok := ex.classifyDegrade(ctx, err)
				if !ok {
					return nil, err
				}
				deg = d
				break
			}
		}
		c, err := g.root.Next(pullCtx)
		if err != nil {
			d, ok := ex.classifyDegrade(ctx, err)
			if !ok {
				return nil, err
			}
			deg = d
			break
		}
		if c == nil {
			break
		}
		best.push(c)
		if ex.earlyStop && best.full() {
			ex.floor = best.kth()
			if b := g.root.Bound(); ex.floor >= b {
				ex.halt(b)
				break
			}
		}
	}
	halted := ex.halted
	// The degradation report needs the stop bound before the pipeline is
	// torn down (a cancelled operator's bound collapses).
	var stopBound float64
	if deg != nil {
		stopBound = g.root.Bound()
		runSc.Event("degraded",
			obs.KV("reason", string(deg.Reason)),
			obs.KV("failed", strings.Join(deg.Failed, ",")))
		if m := ex.engine.metrics; m != nil {
			m.Counter("seco.engine.degraded." + string(deg.Reason)).Add(1)
		}
	}
	// Stop the prefetchers and wait for every pipeline goroutine before
	// reading the counters.
	cancel()
	g.wg.Wait()

	fid := ex.assessFidelity(g)
	res := ex.materialize(best.ranked())
	run := ex.newRun(g, res, best.pulled, start, halted)
	run.Fidelity = fid
	if deg != nil {
		deg.Bound = stopBound
		deg.CertifiedK = certifiedPrefix(res, stopBound, ex.opts.Weights)
		deg.FetchDepth = map[string]int{}
		for i := range ex.nodes {
			if ex.nodes[i].svc != nil {
				deg.FetchDepth[ex.nodes[i].id] = int(g.depth[i].Load())
			}
		}
		run.Degraded = deg
	}
	endRun(
		run.Elapsed,
		obs.KI("combinations", int64(len(res))),
		obs.KI("pulled", int64(best.pulled)),
		obs.KV("halted", strconv.FormatBool(halted)),
		obs.KV("degraded", strconv.FormatBool(deg != nil)),
	)
	return run, nil
}

// halt records that the floor reached the root's bound, certifying the
// top-K: in the driver after a push, in the root reader after a skip.
func (ex *executor) halt(bound float64) {
	ex.halted = true
	if ex.run.Trace != nil {
		ex.run.Trace.Scope("run").Event("halted",
			obs.KI("pulled", int64(ex.best.pulled)),
			obs.KV("kth", trim(ex.floor)),
			obs.KV("bound", trim(bound)))
	}
}

// materialize converts the surviving combs to the public map-backed
// Combinations. This is the only place the runtime builds alias maps, and
// it must run before the graph teardown releases the operator arenas.
func (ex *executor) materialize(ranked []rankedComb) []*types.Combination {
	out := make([]*types.Combination, len(ranked))
	for i, r := range ranked {
		out[i] = ex.layout.materialize(r.c)
	}
	return out
}

// trim renders a score for a trace attribute.
func trim(f float64) string { return strconv.FormatFloat(f, 'g', 6, 64) }

// nonNegative reports whether every ranking weight is ≥ 0 — the
// monotonicity requirement of the early-stopping bound.
func nonNegative(weights map[string]float64) bool {
	for _, w := range weights {
		if w < 0 {
			return false
		}
	}
	return true
}

// topK keeps the K best combs pulled so far, ranked by decreasing score
// with arrival order breaking ties — the order a stable sort of every
// pulled comb by score would give, without sorting (or retaining) what
// cannot be in the answer. With k > 0 it is a bounded heap whose root is
// the worst comb kept: the K-th best, the score an unseen combination must
// beat to enter the top-K. With k = 0 nothing is dropped. Hand-rolled over
// a plain slice: container/heap would box every pushed entry into an
// interface value, the per-pull allocation the compact runtime avoids.
type topK struct {
	k      int
	h      []rankedComb
	pulled int
}

// rankedComb is a pulled comb and its arrival number.
type rankedComb struct {
	c   *comb
	seq int
}

// before reports whether a ranks ahead of b.
func (a rankedComb) before(b rankedComb) bool {
	return a.c.score > b.c.score || (a.c.score == b.c.score && a.seq < b.seq)
}

// maxTopKReserve bounds what a top-K reserves up front. K is a request's
// to choose, up to the largest int; a heap past this grows as it fills.
const maxTopKReserve = 1 << 12

// newTopK returns a top-K of bound k; hint pre-sizes the unbounded case.
func newTopK(k, hint int) topK {
	if k > 0 {
		hint = min(k, maxTopKReserve)
	}
	return topK{k: k, h: make([]rankedComb, 0, hint)}
}

// full reports whether K combs are held, so kth is the K-th best score.
func (t *topK) full() bool   { return t.k > 0 && len(t.h) == t.k }
func (t *topK) kth() float64 { return t.h[0].c.score }

func (t *topK) push(c *comb) {
	r := rankedComb{c, t.pulled}
	t.pulled++
	switch {
	case t.k == 0:
		t.h = append(t.h, r)
	case len(t.h) < t.k:
		t.h = append(t.h, r)
		for i := len(t.h) - 1; i > 0; {
			p := (i - 1) / 2
			if !t.h[p].before(t.h[i]) {
				break
			}
			t.h[p], t.h[i] = t.h[i], t.h[p]
			i = p
		}
	case r.before(t.h[0]):
		t.h[0] = r
		for i, n := 0, len(t.h); ; {
			l, rt, worst := 2*i+1, 2*i+2, i
			if l < n && t.h[worst].before(t.h[l]) {
				worst = l
			}
			if rt < n && t.h[worst].before(t.h[rt]) {
				worst = rt
			}
			if worst == i {
				break
			}
			t.h[i], t.h[worst] = t.h[worst], t.h[i]
			i = worst
		}
	}
}

// reset empties the top-K for the next run, keeping its buffer.
func (t *topK) reset() {
	clear(t.h)
	t.h, t.pulled = t.h[:0], 0
}

// ranked sorts the kept combs into rank order. Arrival numbers make the
// order total, so no stable sort is needed.
func (t *topK) ranked() []rankedComb {
	sort.Slice(t.h, func(i, j int) bool { return t.h[i].before(t.h[j]) })
	return t.h
}
