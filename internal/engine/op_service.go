package engine

import (
	"context"
	"errors"
	"math"
	"runtime/pprof"
	"sync"
	"sync/atomic"

	"seco/internal/fidelity"
	"seco/internal/obs"
	"seco/internal/plan"
	"seco/internal/service"
	"seco/internal/types"
)

// This file implements the one service-node operator, serviceOp: a
// demand-paged reader. The service is invoked lazily (never before the
// first upstream combination arrives, never at all when the upstream is
// empty) and a chunk is fetched only when the enumeration runs past the
// fetched prefix, so a fetch budget is a ceiling, not a prepayment. A scan
// (non-piped node) invokes once with the fixed input and shares the prefix
// across every upstream combination. A pipe (§4.2.1's pipe join) binds the
// input from each upstream combination and starts over with each one. It
// holds a look-ahead window of Parallelism combinations, the current one
// included, whose source scores tighten the bound. Under a clock that
// waits, each one not yet reached prepays only its Invoke and first chunk,
// on a goroutine the graph's WaitGroup tracks, to overlap the piped
// invocations; under a VirtualClock nothing is launched and a reading is
// invoked when the consumer reaches it. Composition happens on the
// consumer goroutine into the operator's one arena, in upstream (ranking)
// order. Every call goes through the run's Counter, the one choke point
// for budget probing, latency charging and call counting. Readings, with
// their input buffers, come from a pool, and their prefixes live in pooled
// buffers pre-sized from the fetch budget and chunk size.

// serviceOp is the demand-paged reader of a service node. Enumeration
// order is upstream-outer, tuple-inner.
type serviceOp struct {
	*svcProg
	ex      *executor
	g       *graph // tracks the look-ahead goroutines and pooled buffers
	counter *service.Counter
	fixed   service.Input
	// par is the look-ahead window of a pipe: upstream combinations pulled
	// at once, the current one included.
	par   int
	up    Operator
	depth *atomic.Int64
	sc    *obs.Scope        // the node's trace lane; nil when untraced
	cand  *fidelity.Counter // compose attempts; nil when fidelity is off

	arena *combArena
	// emitted is the root reader's emission counter (nil on every other
	// reader): only the root skips what cannot rank, see skip.
	emitted *atomic.Int64
	// labeled is the run context with this node's seco.operator label; one
	// serves all launches, as every Next of a run has the same context.
	labeled context.Context
	// rd is the invocation the current combination reads: a scan's one
	// invocation for the whole run, a pipe's own per combination.
	rd *reading
	// ahead holds a pipe's readings pulled ahead and not yet reached, in
	// upstream order.
	ahead  []*reading
	cur    *comb
	j      int
	upDone bool
	done   bool
	// rest snapshots boundRest while skipping: from a skip to the next
	// fetch, advance or real emission.
	skipping bool
	rest     float64
	// cancel is the run context's Done channel, captured at Open: the
	// per-candidate cancellation poll is a non-blocking receive on it.
	cancel <-chan struct{}
}

// reading is one invocation of the service and the ranked prefix it has
// fetched so far. Readings are pooled: run stamps the graph holding one
// (nil while pooled), as pooled does for a buffer handle.
type reading struct {
	run *graph
	src *comb // the upstream combination a pipe binds from; nil for a scan
	// in is a pipe reading's own input buffer, kept through the pool and
	// refilled from src on each use; services do not retain it past Invoke.
	in  service.Input
	inv service.Invocation
	// tuples is the fetched prefix, in the pooled buffer buf holds once
	// the first chunk has landed.
	tuples    []*types.Tuple
	buf       *pooled[*types.Tuple]
	fetches   int
	exhausted bool
	// ready is closed once a look-ahead reading's Invoke and first Fetch
	// have returned, err holding their failure; the launching goroutine
	// owns the reading until then. nil for a reading fetched on demand,
	// which includes every reading under a VirtualClock.
	ready chan struct{}
	err   error
}

var readingPool = sync.Pool{New: func() any { return new(reading) }}

// getReading takes a reading of the upstream combination src for run g,
// with the input buffer it kept from its last use. It counts on held, so
// graph.shutdown catches a reading never put back.
func (g *graph) getReading(src *comb) *reading {
	r := readingPool.Get().(*reading)
	g.held.Add(1)
	*r = reading{run: g, src: src, in: r.in}
	return r
}

// putReading returns run g's reading, and its prefix buffer, to the pools.
// The reading must be settled: no look-ahead goroutine owns it.
func (g *graph) putReading(r *reading) {
	if r.run != g {
		panic("engine: put of a reading the run does not hold")
	}
	if r.buf != nil {
		tupleSlices.put(g, r.buf, r.tuples)
	}
	g.held.Add(-1)
	clear(r.in)
	*r = reading{in: r.in[:0]}
	readingPool.Put(r)
}

func (s *serviceOp) Open(ctx context.Context) error {
	s.cancel = ctx.Done()
	return s.up.Open(ctx)
}

// canceled polls the run context without the lock ctx.Err takes: a
// receive on its Done channel (nil, so never ready, for a context that
// cannot be canceled).
func (s *serviceOp) canceled(ctx context.Context) error {
	select {
	case <-s.cancel:
		return ctx.Err()
	default:
		return nil
	}
}

// canFetch reports whether the invocation may still be asked for another
// chunk. All three disqualifiers (budget spent, limit reached, service
// exhausted) are permanent for an invocation, so once an upstream
// combination has finished its inner loop a scan's tuple list is final —
// which the bound relies on.
func (s *serviceOp) canFetch(r *reading) bool {
	if r.exhausted || r.fetches >= s.budget {
		return false
	}
	if s.n.Limit > 0 && len(r.tuples) >= s.n.Limit {
		return false
	}
	return true
}

// fetch pulls the reading's next chunk, invoking the service first when
// the reading has no invocation yet. It runs on the consumer goroutine,
// or once on a look-ahead goroutine that owns the reading.
func (s *serviceOp) fetch(ctx context.Context, r *reading) error {
	// Attach this node's trace lane to the call context, so the Counter's
	// per-call spans and any middleware events attribute here.
	ctx = obs.WithScope(ctx, s.sc)
	if r.inv == nil {
		in := s.fixed
		if r.src != nil {
			var err error
			if r.in, err = s.pipeInput(r.in, s.fixed, r.src); err != nil {
				return withAlias(s.n.Alias, err)
			}
			in = r.in
		}
		inv, err := s.counter.Invoke(ctx, in)
		if err != nil {
			return withAlias(s.n.Alias, err)
		}
		r.inv = inv
	}
	chunk, err := r.inv.Fetch(ctx)
	if errors.Is(err, service.ErrExhausted) {
		r.exhausted = true
		return nil
	}
	if err != nil {
		return withAlias(s.n.Alias, err)
	}
	r.fetches++
	s.depth.Add(1)
	if r.buf == nil {
		// Pre-size the prefix buffer from the plan's fetch budget and the
		// service's published chunk size.
		r.buf = tupleSlices.get(s.g, s.hint)
		r.tuples = r.buf.s
	}
	r.tuples = append(r.tuples, chunk.Tuples...)
	if s.n.Limit > 0 && len(r.tuples) > s.n.Limit {
		r.tuples = r.tuples[:s.n.Limit]
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
		if err := s.canceled(ctx); err != nil {
			return nil, err
		}
		if s.cur == nil {
			if s.recheck() {
				return nil, nil
			}
			if err := s.advance(ctx); err != nil || s.done {
				return nil, err
			}
		}
		r := s.rd
		for s.j >= len(r.tuples) && s.canFetch(r) {
			if s.recheck() {
				return nil, nil
			}
			if err := s.fetch(ctx, r); err != nil {
				return nil, err
			}
		}
		if s.j >= len(r.tuples) {
			if s.spent(); s.done {
				return nil, nil
			}
			continue
		}
		tu := r.tuples[s.j]
		s.j++
		s.cand.Add(1)
		if ok, err := matchSvc(s.cur, tu, s.preds); err != nil || !ok {
			if err != nil {
				return nil, err
			}
			continue
		}
		score := s.ex.layout.rankWith(s.cur, s.slot, tu)
		if s.emitted != nil && score < s.ex.floor {
			if err := s.skip(ctx); err != nil || s.done {
				return nil, err
			}
			continue
		}
		s.skipping = false
		return compose(s.arena, s.cur, s.slot, tu, score), nil
	}
}

// skip drops a root candidate below the pull driver's floor, which could
// never displace a top-K entry, doing what the driver would have done with
// it: count it, test floor ≥ Bound, probe cancellation and budget. Only
// the current combination's term of Bound moves between skips.
func (s *serviceOp) skip(ctx context.Context) error {
	s.emitted.Add(1)
	s.ex.best.pulled++
	if !s.skipping {
		s.rest, s.skipping = s.boundRest(), true
	}
	if s.certified(math.Max(s.curBound(), s.rest)) {
		return nil
	}
	if err := s.canceled(ctx); err != nil || s.ex.budget == nil {
		return err
	}
	return s.ex.budget()
}

// recheck drops the snapshot before a fetch or advance and, after skips,
// re-tests with a fresh Bound. Its current term is below the floor after
// a skip, so only boundRest, tightened by landed look-aheads, decides.
func (s *serviceOp) recheck() bool {
	skipped := s.skipping
	s.skipping = false
	return skipped && s.certified(s.Bound())
}

// certified runs the pull driver's stopping test against bound; when it
// fires, the top-K is certified and the enumeration ends here.
func (s *serviceOp) certified(bound float64) bool {
	if s.ex.floor < bound {
		return false
	}
	s.done = true
	s.ex.halt(bound)
	return true
}

// advance moves to the next upstream combination. A scan keeps reading
// its one invocation. A pipe tops its window back up to par combinations
// — launching a look-ahead reading for each one behind the next, unless
// the clock is virtual — then takes the oldest and, when it was launched,
// waits for its first chunk.
func (s *serviceOp) advance(ctx context.Context) error {
	if len(s.pipes) == 0 {
		c, err := s.up.Next(ctx)
		if err != nil {
			return err
		}
		if c == nil {
			s.done = true
			return nil
		}
		if s.rd == nil {
			s.rd = s.g.getReading(nil)
		}
		s.cur, s.j = c, 0
		return nil
	}
	for !s.upDone && len(s.ahead) < s.par {
		c, err := s.up.Next(ctx)
		if err != nil {
			return err
		}
		if c == nil {
			s.upDone = true
			break
		}
		r := s.g.getReading(c)
		if len(s.ahead) > 0 && !s.ex.engine.virtual {
			s.launch(ctx, r)
		}
		s.ahead = append(s.ahead, r)
	}
	if len(s.ahead) == 0 {
		s.done = true
		return nil
	}
	r := s.ahead[0]
	s.ahead = s.ahead[:copy(s.ahead, s.ahead[1:])]
	s.rd, s.cur, s.j = r, r.src, 0
	if r.ready != nil {
		<-r.ready
	}
	return r.err
}

// launch issues a look-ahead reading's Invoke and first Fetch on its own
// goroutine, which carries a seco.operator pprof label when the run is
// observed, so profiles attribute the overlapped invocations to this node.
func (s *serviceOp) launch(ctx context.Context, r *reading) {
	r.ready = make(chan struct{})
	labeled := s.sc != nil || s.ex.engine.metrics != nil
	if labeled {
		if s.labeled == nil {
			s.labeled = pprof.WithLabels(ctx, pprof.Labels("seco.operator", s.n.ID))
		}
		ctx = s.labeled
	}
	s.g.wg.Add(1)
	go func() {
		defer s.g.wg.Done()
		defer close(r.ready)
		if labeled {
			pprof.SetGoroutineLabels(ctx)
		}
		r.err = s.fetch(ctx, r)
	}()
}

// spent retires the current upstream combination once its inner loop has
// run out of tuples. A scan keeps its prefix for the next combination —
// unless the service yielded nothing, when no combination can ever
// compose and the remaining upstream pulls are skipped. A pipe puts the
// reading back: the next combination pipes a different input and may
// still yield.
func (s *serviceOp) spent() {
	s.cur = nil
	if len(s.pipes) == 0 {
		s.done = len(s.rd.tuples) == 0
		return
	}
	s.g.putReading(s.rd)
	s.rd = nil
}

func (s *serviceOp) Bound() float64 {
	if s.done {
		return math.Inf(-1)
	}
	return math.Max(s.curBound(), s.boundRest())
}

// curBound bounds the rest of the current upstream combination's inner
// loop, in O(1).
func (s *serviceOp) curBound() float64 {
	if s.cur != nil {
		if v, ok := s.nextCap(s.rd, s.j); ok {
			return s.cur.score + s.w*v
		}
	}
	return math.Inf(-1)
}

// boundRest bounds everything after the current combination: the
// combinations pulled ahead — the first fetched tuple once it has landed,
// the curve's top while the fetch is in flight or not yet issued — and the
// upstream.
func (s *serviceOp) boundRest() float64 {
	b := math.Inf(-1)
	top := scoringCap(s.n.Stats.Scoring, 0)
	for _, r := range s.ahead {
		v, ok := top, true
		select {
		case <-r.ready:
			if r.err == nil {
				v, ok = s.nextCap(r, 0)
			}
		default:
		}
		if ok && r.src.score+s.w*v > b {
			b = r.src.score + s.w*v
		}
	}
	if ub := s.up.Bound(); !math.IsInf(ub, -1) {
		if v := ub + s.w*s.bestTupleCap(); v > b {
			b = v
		}
	}
	return b
}

func (s *serviceOp) Close() {
	s.done = true
	s.cur = nil
	if s.rd != nil {
		s.g.putReading(s.rd)
	}
	for _, r := range s.ahead {
		if r.ready != nil {
			<-r.ready
		}
		s.g.putReading(r)
	}
	s.rd, s.ahead = nil, nil
	s.arena.release()
}

// nextCap bounds the score of tuple j of a reading: the fetched tuple
// itself or, when the prefix is spent but more is fetchable, the published
// curve at the next rank position, tightened by the last score seen
// (fetched tuples are non-increasing); ok is false when the reading has
// nothing left from j on.
func (s *serviceOp) nextCap(r *reading, j int) (v float64, ok bool) {
	if j < len(r.tuples) {
		return r.tuples[j].Score, true
	}
	if !s.canFetch(r) {
		return 0, false
	}
	v = scoringCap(s.n.Stats.Scoring, len(r.tuples))
	if len(r.tuples) > 0 {
		v = math.Min(v, r.tuples[len(r.tuples)-1].Score)
	}
	return v, true
}

// bestTupleCap bounds the best tuple this service contributes to any
// future upstream combination: a scan's shared prefix pins it, while a
// pipe starts a fresh invocation whose best is the curve's top.
func (s *serviceOp) bestTupleCap() float64 {
	if len(s.pipes) > 0 || s.rd == nil {
		return scoringCap(s.n.Stats.Scoring, 0)
	}
	v, _ := s.nextCap(s.rd, 0)
	return v
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
