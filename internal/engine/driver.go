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
//     results with a certified prefix.
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
	all := make([]*comb, 0, ex.outHint)
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
		all = append(all, c)
	}
	// Stop the prefetchers and wait for every pipeline goroutine before
	// reading the counters.
	cancel()
	g.wg.Wait()

	fid := ex.assessFidelity(g)
	ranked := rankTruncate(all, ex.opts.TargetK)
	run := ex.newRun(g, ex.materialize(ranked), len(all), start, false)
	run.Fidelity = fid
	endRun(run.Elapsed, obs.KI("combinations", int64(len(ranked))), obs.KI("pulled", int64(len(all))))
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

	budget := ex.budgetCheck(start)
	var (
		all    = make([]*comb, 0, ex.outHint)
		kth    minHeap
		halted bool
		deg    *Degradation
	)
	if ex.earlyStop {
		kth.grow(ex.opts.TargetK + 1)
	}
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
		all = append(all, c)
		if ex.earlyStop {
			kth.push(c.score)
			if kth.len() > ex.opts.TargetK {
				kth.popMin()
			}
			if kth.len() == ex.opts.TargetK && kth.min() >= g.root.Bound() {
				halted = true
				runSc.Event("halted",
					obs.KI("pulled", int64(len(all))),
					obs.KV("kth", trim(kth.min())),
					obs.KV("bound", trim(g.root.Bound())))
				break
			}
		}
	}
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
	ranked := rankTruncate(all, ex.opts.TargetK)
	res := ex.materialize(ranked)
	run := ex.newRun(g, res, len(all), start, halted)
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
		obs.KI("combinations", int64(len(ranked))),
		obs.KI("pulled", int64(len(all))),
		obs.KV("halted", boolAttr(halted)),
		obs.KV("degraded", boolAttr(deg != nil)),
	)
	return run, nil
}

// rankTruncate stable-sorts the pulled combs by decreasing score and
// truncates to the top-K (K = 0 keeps everything) — all still in compact
// form, so the sort moves slice headers, not alias maps.
func rankTruncate(all []*comb, k int) []*comb {
	ranked := all
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].score > ranked[j].score })
	if k > 0 && len(ranked) > k {
		ranked = ranked[:k]
	}
	return ranked
}

// materialize converts the surviving combs to the public map-backed
// Combinations. This is the only place the runtime builds alias maps, and
// it must run before the graph teardown releases the operator arenas.
func (ex *executor) materialize(ranked []*comb) []*types.Combination {
	out := make([]*types.Combination, len(ranked))
	for i, c := range ranked {
		out[i] = ex.layout.materialize(c)
	}
	return out
}

// trim renders a score for a trace attribute.
func trim(f float64) string { return strconv.FormatFloat(f, 'g', 6, 64) }

func boolAttr(b bool) string {
	if b {
		return "true"
	}
	return "false"
}

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

// minHeap keeps the K best scores pulled so far; its root is the K-th
// best, the score an unseen combination must beat to enter the top-K.
// Hand-rolled over plain float64s: the container/heap interface would box
// every pushed score into an interface value, which is exactly the kind
// of per-pull allocation the compact runtime exists to avoid.
type minHeap struct{ h []float64 }

func (m *minHeap) len() int     { return len(m.h) }
func (m *minHeap) min() float64 { return m.h[0] }
func (m *minHeap) grow(n int)   { m.h = make([]float64, 0, n) }

func (m *minHeap) push(x float64) {
	m.h = append(m.h, x)
	i := len(m.h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if m.h[p] <= m.h[i] {
			break
		}
		m.h[p], m.h[i] = m.h[i], m.h[p]
		i = p
	}
}

func (m *minHeap) popMin() float64 {
	v := m.h[0]
	n := len(m.h) - 1
	m.h[0] = m.h[n]
	m.h = m.h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && m.h[l] < m.h[small] {
			small = l
		}
		if r < n && m.h[r] < m.h[small] {
			small = r
		}
		if small == i {
			break
		}
		m.h[i], m.h[small] = m.h[small], m.h[i]
		i = small
	}
	return v
}
