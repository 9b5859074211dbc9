package engine

import (
	"context"
	"errors"
	"math"
	"runtime/pprof"
	"sync/atomic"

	"seco/internal/fidelity"
	"seco/internal/obs"
	"seco/internal/plan"
	"seco/internal/service"
	"seco/internal/types"
)

// This file implements the two service-node operators. serviceOp is the
// demand-paged service reader: the service is invoked lazily (never before
// the first upstream combination arrives, and never at all when the
// upstream is empty) and a chunk is fetched only when the enumeration
// demands tuples beyond the fetched prefix. Its one mode difference is
// where the invocation input comes from. A scan (non-piped node) invokes
// once with the fixed input and shares the fetched prefix across every
// upstream combination. A paged pipe (a piped node whose sole consumer is
// an n-ary multijoin, which pulls its branches chunk by chunk and must
// not pay for depth the corner bound never asked for) pipes the input
// from the current upstream combination and starts over with each one.
// pipeOp is the prepaid pipe join of every other piped node: a FIFO
// window of at most Parallelism in-flight invocations, one per upstream
// combination, each draining its whole fetch budget, emitting results in
// upstream (ranking) order. Both issue every service call through the
// run's Counter from the shared Invoker, so budget probing, latency
// charging and call counting happen at one choke point. Combinations are
// composed into per-operator arenas; the fetched-tuple prefix lives in a
// pooled buffer pre-sized from the node's fetch budget and chunk size,
// both returned on Close.

// serviceOp is the demand-paged reader of a service node. Enumeration
// order is upstream-outer, tuple-inner.
type serviceOp struct {
	*svcProg
	ex      *executor
	counter *service.Counter
	fixed   service.Input
	up      Operator
	depth   *atomic.Int64
	sc      *obs.Scope        // the node's trace lane; nil when untraced
	cand    *fidelity.Counter // compose attempts; nil when fidelity is off

	arena *combArena
	// Invocation state: one invocation for the whole run when scanning,
	// one per upstream combination (reset by spent) when piped.
	inv       service.Invocation
	tuples    []*types.Tuple
	fetches   int
	exhausted bool
	cur       *comb
	j         int
	done      bool
}

func (s *serviceOp) Open(ctx context.Context) error { return s.up.Open(ctx) }

// canFetch reports whether the invocation may still be asked for another
// chunk. All three disqualifiers (budget spent, limit reached, service
// exhausted) are permanent for an invocation, so once an upstream
// combination has finished its inner loop a scan's tuple list is final —
// which the bound relies on.
func (s *serviceOp) canFetch() bool {
	if s.exhausted || s.fetches >= s.budget {
		return false
	}
	if s.n.Limit > 0 && len(s.tuples) >= s.n.Limit {
		return false
	}
	return true
}

func (s *serviceOp) fetch(ctx context.Context) error {
	// Attach this node's trace lane to the call context, so the Counter's
	// per-call spans and any middleware events attribute here.
	ctx = obs.WithScope(ctx, s.sc)
	if s.inv == nil {
		in := s.fixed
		if s.paged {
			var err error
			if in, err = s.pipeInput(s.fixed, s.cur); err != nil {
				return err
			}
		}
		inv, err := s.counter.Invoke(ctx, in)
		if err != nil {
			return withAlias(s.n.Alias, err)
		}
		s.inv = inv
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
		// Pre-size the prefix buffer from the plan's fetch budget and the
		// service's published chunk size.
		s.tuples = getTupleSlice(s.hint)
	}
	s.tuples = append(s.tuples, chunk.Tuples...)
	if s.n.Limit > 0 && len(s.tuples) > s.n.Limit {
		s.tuples = s.tuples[:s.n.Limit]
	}
	return nil
}

// prefixHint estimates the fetched-tuple prefix a service scan reaches:
// fetch budget × chunk size, capped by the node limit.
func prefixHint(n *plan.Node, budget int) int {
	hint := 16
	if n.Stats.Chunked() && n.Stats.ChunkSize > 0 {
		hint = budget * n.Stats.ChunkSize
	} else if n.Stats.AvgCardinality > 0 {
		hint = int(n.Stats.AvgCardinality) + 1
	}
	if n.Limit > 0 && n.Limit < hint {
		hint = n.Limit
	}
	if hint < 1 {
		hint = 1
	}
	return hint
}

func (s *serviceOp) Next(ctx context.Context) (*comb, error) {
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
			if s.spent(); s.done {
				return nil, nil
			}
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

// spent retires the current upstream combination once its inner loop has
// run out of tuples. A scan keeps its prefix for the next combination —
// unless the service yielded nothing, when no combination can ever
// compose and the remaining upstream pulls are skipped. A piped reader
// drops the invocation: the next combination pipes a different input and
// may still yield.
func (s *serviceOp) spent() {
	s.cur = nil
	if !s.paged {
		s.done = len(s.tuples) == 0
		return
	}
	s.inv = nil
	if s.tuples != nil {
		putTupleSlice(s.tuples)
		s.tuples = nil
	}
	s.fetches = 0
	s.exhausted = false
}

func (s *serviceOp) Bound() float64 {
	if s.done {
		return math.Inf(-1)
	}
	b := math.Inf(-1)
	if s.cur != nil {
		// Remaining inner loop of the current upstream combination: the
		// next tuple (fetched tuples are non-increasing) or, when the
		// prefix is spent but more is fetchable, the unseen-tuple cap.
		if s.j < len(s.tuples) {
			b = s.cur.score + s.w*s.tuples[s.j].Score
		} else if s.canFetch() {
			b = s.cur.score + s.w*s.unseenCap()
		}
	}
	if ub := s.up.Bound(); !math.IsInf(ub, -1) {
		if v := ub + s.w*s.bestTupleCap(); v > b {
			b = v
		}
	}
	return b
}

func (s *serviceOp) Close() error {
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

// unseenCap bounds the score of the next not-yet-fetched tuple: the
// published curve at the next rank position, tightened by the last score
// actually seen (tuples arrive in non-increasing order).
func (s *serviceOp) unseenCap() float64 {
	cap := scoringCap(s.n.Stats.Scoring, len(s.tuples))
	if len(s.tuples) > 0 {
		if last := s.tuples[len(s.tuples)-1].Score; last < cap {
			cap = last
		}
	}
	return cap
}

// bestTupleCap bounds the best tuple this service contributes to any
// future upstream combination: a scan's shared prefix pins it, while a
// piped reader starts a fresh invocation whose best is the curve's top.
func (s *serviceOp) bestTupleCap() float64 {
	if s.paged {
		return scoringCap(s.n.Stats.Scoring, 0)
	}
	if len(s.tuples) > 0 {
		return s.tuples[0].Score
	}
	if !s.canFetch() {
		return 0
	}
	return scoringCap(s.n.Stats.Scoring, 0)
}

// scoringCap evaluates the published curve at a rank position. A
// zero-value Scoring (constant zero) means the service never published a
// curve; scores live in [0,1], so assume the worst.
func scoringCap(sc service.Scoring, pos int) float64 {
	if sc.Kind == service.ScoringConstant && sc.High == 0 {
		return 1
	}
	return sc.Score(pos)
}

// pipeOp runs a piped service node with a prepaid window: instead of a
// barrier over all upstream rows, it keeps a FIFO window of at most
// Parallelism in-flight invocations as a bounded prefetch, emitting
// results in upstream (ranking) order. Each window slot composes into its
// own arena (the slot goroutine is the arena's single owner until the
// slot's done channel closes); the operator collects the arenas and
// releases them on Close.
type pipeOp struct {
	*svcProg
	g       *graph
	ex      *executor
	counter *service.Counter
	fixed   service.Input
	par     int
	up      Operator
	depth   *atomic.Int64
	sc      *obs.Scope        // the node's trace lane; nil when untraced
	cand    *fidelity.Counter // compose attempts; nil when fidelity is off

	upDone  bool
	window  []*pipeSlot
	arenas  []*combArena
	head    []*comb
	headIdx int
	done    bool
}

type pipeSlot struct {
	src   *comb
	arena *combArena
	out   []*comb
	err   error
	done  chan struct{}
}

func (s *pipeOp) Open(ctx context.Context) error { return s.up.Open(ctx) }

// fill tops the window up to the parallelism bound, launching one
// invocation goroutine per upstream combination.
func (s *pipeOp) fill(ctx context.Context) error {
	for !s.upDone && len(s.window) < s.par {
		c, err := s.up.Next(ctx)
		if err != nil {
			return err
		}
		if c == nil {
			s.upDone = true
			return nil
		}
		slot := &pipeSlot{src: c, arena: newCombArena(s.ex.layout.width()), done: make(chan struct{})}
		s.window = append(s.window, slot)
		s.arenas = append(s.arenas, slot.arena)
		s.g.wg.Add(1)
		// The slot goroutine carries the node's trace lane in its context
		// and, when the run is observed, a seco.operator pprof label so
		// profiles attribute the parallel invocations to this node.
		cctx := obs.WithScope(ctx, s.sc)
		go func() {
			defer s.g.wg.Done()
			defer close(slot.done)
			work := func(ctx context.Context) {
				var fetched int
				slot.out, fetched, slot.err = s.pipeOne(ctx, slot)
				s.depth.Add(int64(fetched))
			}
			if s.sc != nil || s.ex.engine.metrics != nil {
				pprof.Do(cctx, pprof.Labels("seco.operator", s.n.ID), work)
			} else {
				work(cctx)
			}
		}()
	}
	return nil
}

func (s *pipeOp) Next(ctx context.Context) (*comb, error) {
	for {
		if s.headIdx < len(s.head) {
			c := s.head[s.headIdx]
			s.headIdx++
			return c, nil
		}
		if s.done {
			return nil, nil
		}
		if err := s.fill(ctx); err != nil {
			return nil, err
		}
		if len(s.window) == 0 {
			s.done = true
			return nil, nil
		}
		slot := s.window[0]
		s.window = s.window[1:]
		<-slot.done
		if slot.err != nil {
			return nil, withAlias(s.n.Alias, slot.err)
		}
		if s.head != nil {
			// The previous head has been fully emitted; its combs live on
			// downstream but the buffer itself is recyclable.
			putCombSlice(s.head)
		}
		s.head, s.headIdx = slot.out, 0
		slot.out = nil
		// Refill behind the consumed slot so the window stays busy while
		// the head results are being emitted.
		if err := s.fill(ctx); err != nil {
			return nil, err
		}
	}
}

func (s *pipeOp) Bound() float64 {
	b := math.Inf(-1)
	for i := s.headIdx; i < len(s.head); i++ {
		if sc := s.head[i].score; sc > b {
			b = sc
		}
	}
	// In-flight and future invocations: upstream score plus the best the
	// service can possibly return (its curve at position zero). slot.src
	// is immutable after launch, so reading it here is race-free.
	cap := s.w * scoringCap(s.n.Stats.Scoring, 0)
	for _, slot := range s.window {
		if v := slot.src.score + cap; v > b {
			b = v
		}
	}
	if ub := s.up.Bound(); !math.IsInf(ub, -1) {
		if v := ub + cap; v > b {
			b = v
		}
	}
	return b
}

// Close waits out the in-flight window invocations (each is bounded work
// and observes the driver's cancellation), so the operator's goroutines
// are quiescent before its inputs are closed and before the slot arenas
// are released.
func (s *pipeOp) Close() error {
	s.done = true
	for _, slot := range s.window {
		<-slot.done
		if slot.out != nil {
			putCombSlice(slot.out)
			slot.out = nil
		}
	}
	s.window = nil
	if s.head != nil {
		putCombSlice(s.head)
		s.head = nil
	}
	for _, a := range s.arenas {
		a.release()
	}
	s.arenas = nil
	return nil
}

// pipeOne performs one piped invocation for an upstream combination,
// also reporting how many request-responses it issued. It runs on the
// slot's goroutine and composes into the slot's own arena.
func (s *pipeOp) pipeOne(ctx context.Context, slot *pipeSlot) ([]*comb, int, error) {
	inBinding, err := s.pipeInput(s.fixed, slot.src)
	if err != nil {
		return nil, 0, err
	}
	scratch := getTupleSlice(s.hint)
	tuples, fetched, err := fetchTuples(ctx, s.counter, inBinding, s.budget, s.n.Limit, scratch)
	if err != nil {
		putTupleSlice(scratch)
		return nil, fetched, err
	}
	// One compose attempt per fetched tuple, batched per invocation.
	s.cand.Add(int64(len(tuples)))
	var out []*comb
	for _, tu := range tuples {
		merged, ok, err := compose(slot.arena, s.ex.layout, slot.src, s.slot, tu, s.preds)
		if err != nil {
			putTupleSlice(tuples)
			putCombSlice(out) // lazily acquired; a cap-0 nil slice is a no-op
			return nil, fetched, err
		}
		if ok {
			if out == nil {
				out = getCombSlice(len(tuples))
			}
			out = append(out, merged)
		}
	}
	putTupleSlice(tuples)
	return out, fetched, nil
}

// fetchTuples invokes the service once and drains up to maxFetches chunks
// (all chunks when the service is unchunked), keeping at most limit tuples
// when limit > 0. It appends into dst (reusing its backing array) and also
// reports the number of chunks fetched — the fetch depth reached into the
// service's ranked list.
func fetchTuples(ctx context.Context, svc service.Service, in service.Input, maxFetches, limit int, dst []*types.Tuple) ([]*types.Tuple, int, error) {
	inv, err := svc.Invoke(ctx, in)
	if err != nil {
		return nil, 0, err
	}
	tuples := dst[:0]
	fetched := 0
	chunked := svc.Stats().Chunked()
	for f := 0; ; f++ {
		if chunked && f >= maxFetches {
			break
		}
		chunk, err := inv.Fetch(ctx)
		if errors.Is(err, service.ErrExhausted) {
			break
		}
		if err != nil {
			return nil, fetched, err
		}
		fetched++
		tuples = append(tuples, chunk.Tuples...)
		if limit > 0 && len(tuples) >= limit {
			tuples = tuples[:limit]
			break
		}
		if !chunked {
			break
		}
	}
	return tuples, fetched, nil
}
