package engine

import (
	"context"
	"errors"
	"math"
	"sync/atomic"

	"seco/internal/fidelity"
	"seco/internal/obs"
	"seco/internal/plan"
	"seco/internal/service"
	"seco/internal/types"
)

// pagedPipeOp is the demand-paged variant of the pipe join, compiled for
// a piped service node whose sole consumer is a multi-way ranked join.
// The regular pipeOp pre-pays its whole fetch budget per invocation — the
// right call under a binary join tree, where the window goroutines hide
// service latency behind the barrier of composing the invocation's full
// result. The n-ary operator instead pulls its branches chunk by chunk,
// steered by the fused corner bound, and stops pulling a branch the
// moment the bound certifies — so its branch readers must not fetch
// deeper than the enumeration actually demanded. This operator mirrors
// serviceOp's paging discipline (fetch a chunk only when the composed
// prefix is spent) while building the invocation input from the upstream
// combination like pipeOne does; the fetch budget stays a per-invocation
// ceiling, never a prepayment.
type pagedPipeOp struct {
	*svcProg
	ex      *executor
	counter *service.Counter
	fixed   service.Input
	up      Operator
	depth   *atomic.Int64
	sc      *obs.Scope        // the node's trace lane; nil when untraced
	cand    *fidelity.Counter // compose attempts; nil when fidelity is off

	arena *combArena

	// Per-upstream-combination invocation state, reset whenever cur
	// advances: unlike serviceOp, every upstream combination pipes its own
	// input binding, so the fetched prefix cannot be shared across them.
	cur       *comb
	inv       service.Invocation
	tuples    []*types.Tuple
	fetches   int
	exhausted bool
	j         int
	done      bool
}

func (s *pagedPipeOp) Open(ctx context.Context) error { return s.up.Open(ctx) }

func (s *pagedPipeOp) canFetch() bool {
	if s.exhausted || s.fetches >= s.budget {
		return false
	}
	if s.n.Limit > 0 && len(s.tuples) >= s.n.Limit {
		return false
	}
	return true
}

// invoke starts the invocation for the current upstream combination,
// assembling its pipe bindings on top of the fixed ones.
func (s *pagedPipeOp) invoke(ctx context.Context) error {
	in, err := s.pipeInput(s.fixed, s.cur)
	if err != nil {
		return err
	}
	inv, err := s.counter.Invoke(ctx, in)
	if err != nil {
		return withAlias(s.n.Alias, err)
	}
	s.inv = inv
	return nil
}

func (s *pagedPipeOp) fetch(ctx context.Context) error {
	ctx = obs.WithScope(ctx, s.sc)
	if s.inv == nil {
		if err := s.invoke(ctx); err != nil {
			return err
		}
	}
	chunk, err := s.inv.Fetch(ctx)
	if errors.Is(err, service.ErrExhausted) {
		s.exhausted = true
		return nil
	}
	if err != nil {
		return withAlias(s.n.Alias, err)
	}
	s.fetches++
	s.depth.Add(1)
	if s.tuples == nil {
		s.tuples = getTupleSlice(s.hint)
	}
	s.tuples = append(s.tuples, chunk.Tuples...)
	if s.n.Limit > 0 && len(s.tuples) > s.n.Limit {
		s.tuples = s.tuples[:s.n.Limit]
	}
	if !s.n.Stats.Chunked() {
		// Unchunked services answer in full on the first fetch.
		s.exhausted = true
	}
	return nil
}

// reset drops the invocation state of the spent upstream combination.
func (s *pagedPipeOp) reset() {
	s.cur = nil
	s.inv = nil
	if s.tuples != nil {
		putTupleSlice(s.tuples)
		s.tuples = nil
	}
	s.fetches = 0
	s.exhausted = false
	s.j = 0
}

func (s *pagedPipeOp) Next(ctx context.Context) (*comb, error) {
	if s.done {
		return nil, nil
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if s.cur == nil {
			c, err := s.up.Next(ctx)
			if err != nil {
				return nil, err
			}
			if c == nil {
				s.done = true
				return nil, nil
			}
			s.cur, s.j = c, 0
		}
		for s.j >= len(s.tuples) && s.canFetch() {
			if err := s.fetch(ctx); err != nil {
				return nil, err
			}
		}
		if s.j >= len(s.tuples) {
			// This upstream combination's invocation is spent; unlike the
			// non-piped scan, the next combination pipes a different input
			// and may still yield.
			s.reset()
			continue
		}
		tu := s.tuples[s.j]
		s.j++
		s.cand.Add(1)
		merged, ok, err := compose(s.arena, s.ex.layout, s.cur, s.slot, tu, s.preds)
		if err != nil {
			return nil, err
		}
		if ok {
			return merged, nil
		}
	}
}

func (s *pagedPipeOp) Bound() float64 {
	if s.done {
		return math.Inf(-1)
	}
	b := math.Inf(-1)
	if s.cur != nil {
		if s.j < len(s.tuples) {
			b = s.cur.score + s.w*s.tuples[s.j].Score
		} else if s.canFetch() {
			b = s.cur.score + s.w*s.pagedUnseenCap()
		}
	}
	if ub := s.up.Bound(); !math.IsInf(ub, -1) {
		// Future upstream combinations start a fresh invocation, so the
		// best they can compose with is the curve's top position.
		if v := ub + s.w*scoringCap(s.n.Stats.Scoring, 0); v > b {
			b = v
		}
	}
	return b
}

// pagedUnseenCap bounds the next not-yet-fetched tuple of the current
// invocation: the published curve at the next rank, tightened by the last
// score actually seen.
func (s *pagedPipeOp) pagedUnseenCap() float64 {
	cap := scoringCap(s.n.Stats.Scoring, len(s.tuples))
	if len(s.tuples) > 0 {
		if last := s.tuples[len(s.tuples)-1].Score; last < cap {
			cap = last
		}
	}
	return cap
}

func (s *pagedPipeOp) Close() error {
	s.done = true
	s.inv = nil
	s.cur = nil
	if s.tuples != nil {
		putTupleSlice(s.tuples)
		s.tuples = nil
	}
	s.arena.release()
	return nil
}

// pagedFeedsMultiJoin reports whether a piped service node should compile
// to the demand-paged reader: its only consumer is a multi-way join, so
// no other operator relies on the pipe window's eager prefetch.
func pagedFeedsMultiJoin(p *plan.Plan, id string) bool {
	succ := p.Successors(id)
	if len(succ) != 1 {
		return false
	}
	n, ok := p.Node(succ[0])
	return ok && n.Kind == plan.KindMultiJoin
}
