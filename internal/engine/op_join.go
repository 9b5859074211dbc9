package engine

import (
	"context"
	"math"
	"runtime/pprof"

	"seco/internal/fidelity"
	"seco/internal/join"
	"seco/internal/topk"
)

// This file implements the parallel-join operator for predicates that
// need an exploration order: the event-based join explorer (merge-scan or
// nested-loop, per the node's strategy) driven against live chunk
// arrivals from the two input operators, each tile filled by evaluating
// the compiled pair predicates over the chunk pair. A join whose every
// pair predicate is a pure atomic equality does not come here — it
// compiles to the multi-way operator at fan-in 2 (op_multijoin.go), which
// owns the one equality index. Both operators read their inputs through
// joinBranch, defined here: under a clock that waits, a single
// outstanding prefetch goroutine per input assembles the next chunk
// concurrently with the other branches — the parallel service invocation
// the plan topology promises. Under a VirtualClock there is no wait to
// overlap, so a branch assembles its chunk when the join takes it.

// joinBranch is one input of a join operator. Under a clock that waits, a
// single outstanding prefetch goroutine owns the reader and assembles the
// next chunk; results are handed over through a capacity-1 channel, so
// all branches fetch concurrently while the join is driven from one
// goroutine. Under a VirtualClock, take pulls the reader itself.
type joinBranch struct {
	g      *graph
	reader Operator
	// id names the branch's input plan node — the pprof label of the
	// prefetch goroutine when the run is observed.
	id   string
	size int
	ch   chan branchPull
	// outstanding marks a prefetch in flight whose result has not been
	// consumed yet; release drains it so the goroutine's reader ownership
	// has ended before the graph closes the inputs.
	outstanding bool

	chunks   [][]*comb
	chunkMax []float64
	bestSeen float64
	// bound is the reader's bound snapshot as of the last completed pull
	// (the reader itself is owned by the prefetch goroutine while a pull
	// is outstanding); -Inf once the branch has run dry.
	bound  float64
	noMore bool
}

type branchPull struct {
	combos []*comb
	bound  float64
	short  bool // the reader ran dry during this pull
	err    error
}

// newBranch wraps input node `in` of a join with the single-outstanding
// prefetch state.
func (g *graph) newBranch(in, size int) *joinBranch {
	reader := g.reader(in)
	return &joinBranch{
		g: g, reader: reader, id: g.ex.nodes[in].id, size: size,
		ch: make(chan branchPull, 1), bestSeen: math.Inf(-1), bound: reader.Bound(),
	}
}

// start launches the branch's next prefetch. Under a VirtualClock the
// next pull is only due: take runs it on the consumer's goroutine.
func (b *joinBranch) start(ctx context.Context) {
	g := b.g
	if g.ex.engine.virtual {
		return
	}
	b.outstanding = true
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		b.ch <- b.labeledPull(ctx)
	}()
}

// labeledPull runs pull, labelled with the branch's input node when the
// run is observed, so profiles split the join branches.
func (b *joinBranch) labeledPull(ctx context.Context) (res branchPull) {
	if b.g.ex.run.Trace == nil && b.g.ex.engine.metrics == nil {
		return b.pull(ctx)
	}
	pprof.Do(ctx, pprof.Labels("seco.operator", b.id), func(ctx context.Context) {
		res = b.pull(ctx)
	})
	return res
}

// pull assembles the branch's next chunk from its reader.
func (b *joinBranch) pull(ctx context.Context) branchPull {
	var res branchPull
	buf := getCombSlice(b.size)
	for len(buf) < b.size {
		c, err := b.reader.Next(ctx)
		if err != nil {
			res.err = err
			break
		}
		if c == nil {
			res.short = true
			break
		}
		buf = append(buf, c)
	}
	res.combos = buf
	res.bound = b.reader.Bound()
	return res
}

// take consumes the due pull: it records the arrived chunk (with its
// score maximum), the reader's bound and whether the reader ran dry, and
// keeps one pull due while more can come. A nil chunk means the branch
// has nothing more to deliver.
func (b *joinBranch) take(ctx context.Context) ([]*comb, error) {
	if b.noMore {
		return nil, nil
	}
	var res branchPull
	if b.g.ex.engine.virtual {
		res = b.labeledPull(ctx)
	} else {
		res = <-b.ch
	}
	b.outstanding = false
	if res.err != nil {
		putCombSlice(res.combos)
		return nil, res.err
	}
	b.bound = res.bound
	b.noMore = res.short
	if len(res.combos) == 0 {
		putCombSlice(res.combos)
		b.bound, b.noMore = math.Inf(-1), true
		return nil, nil
	}
	b.chunks = append(b.chunks, res.combos)
	m := maxScore(res.combos)
	b.chunkMax = append(b.chunkMax, m)
	if m > b.bestSeen {
		b.bestSeen = m
	}
	if !b.noMore {
		b.start(ctx)
	}
	return res.combos, nil
}

// best is the top score the branch has shown or can still show.
func (b *joinBranch) best() float64 { return math.Max(b.bestSeen, b.bound) }

// release drains the outstanding pull, so the prefetch goroutine's
// ownership of the input reader has ended (the capacity-1 hand-over
// channel guarantees a sender never blocks) before the graph closes the
// input itself, and returns the chunk buffers to their pool.
func (b *joinBranch) release() {
	if b.outstanding {
		res := <-b.ch
		b.outstanding = false
		putCombSlice(res.combos)
	}
	for _, ch := range b.chunks {
		putCombSlice(ch)
	}
	b.chunks = nil
}

// joinOp drives the event-based join explorer against live chunk
// arrivals. Chunk sizes, tile contents and tile order are deterministic
// functions of the input streams (the explorer's decisions depend only on
// fetch counts, exhaustion and processed tiles), so both driver policies
// enumerate the same combinations in the same order.
type joinOp struct {
	*joinProg
	ex          *executor
	explorer    *join.Explorer
	left, right *joinBranch
	arena       *combArena
	// cand tallies the candidate pairs the tiles examined (the full cross
	// product of each chunk pair); nil when fidelity is off.
	cand *fidelity.Counter

	pending    []*comb
	pendingIdx int
	seen       map[join.Tile]bool
	started    bool
	done       bool
}

func (g *graph) newJoinOp(pn *progNode) (Operator, error) {
	jp := pn.join
	lb := g.newBranch(pn.inputs[0], jp.sizes[0])
	rb := g.newBranch(pn.inputs[1], jp.sizes[1])
	// No static fetch limits: branch lengths are unknown up front, so
	// exhaustion is reported live (the explorer rolls the probing fetch
	// back, leaving its state exactly as with a known limit).
	explorer, err := join.NewExplorer(pn.n.Strategy, 0, 0)
	if err != nil {
		return nil, err
	}
	explorer.SetRanker(func(t join.Tile) float64 {
		if t.X >= len(lb.chunks) || t.Y >= len(rb.chunks) {
			return 0
		}
		return chunkTop(lb.chunks[t.X]) * chunkTop(rb.chunks[t.Y])
	})
	return &joinOp{
		joinProg: jp, ex: g.ex, explorer: explorer,
		left: lb, right: rb,
		arena: newCombArena(g.ex.layout.width()),
		seen:  map[join.Tile]bool{},
		cand:  g.fid.Counter(pn.id),
	}, nil
}

func (s *joinOp) Open(ctx context.Context) error {
	if err := s.left.reader.Open(ctx); err != nil {
		return err
	}
	return s.right.reader.Open(ctx)
}

func (s *joinOp) Next(ctx context.Context) (*comb, error) {
	for {
		if s.pendingIdx < len(s.pending) {
			c := s.pending[s.pendingIdx]
			s.pendingIdx++
			return c, nil
		}
		if s.done {
			return nil, nil
		}
		if !s.started {
			s.started = true
			s.left.start(ctx)
			s.right.start(ctx)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ev, ok := s.explorer.Next()
		if !ok {
			s.done = true
			continue
		}
		switch ev.Kind {
		case join.EventFetch:
			// Reveal the chunk the explorer asked about, or report that the
			// side has run dry.
			b := s.left
			if ev.Side == join.SideY {
				b = s.right
			}
			chunk, err := b.take(ctx)
			if err != nil {
				return nil, err
			}
			if chunk == nil {
				s.explorer.ReportExhausted(ev.Side)
			}
		case join.EventTile:
			if err := s.fillTile(ev.Tile); err != nil {
				return nil, err
			}
		}
	}
}

func (s *joinOp) fillTile(t join.Tile) error {
	s.seen[t] = true
	if s.pending == nil {
		s.pending = getCombSlice(s.left.size * s.right.size / 4)
	}
	s.pending = s.pending[:0]
	s.pendingIdx = 0
	cl, cr := s.left.chunks[t.X], s.right.chunks[t.Y]
	s.cand.Add(int64(len(cl) * len(cr)))
	for _, l := range cl {
		for _, r := range cr {
			ok, err := matchAcross(l, r, s.preds)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			merged, ok := mergeBranches(s.arena, s.ex.layout, l, r)
			if !ok {
				continue
			}
			s.pending = append(s.pending, merged)
		}
	}
	return nil
}

// unitPair are the weights the binary corner bound composes with: branch
// combs carry weighted partial sums already.
var unitPair = [2]float64{1, 1}

func (s *joinOp) Bound() float64 {
	b := math.Inf(-1)
	for i := s.pendingIdx; i < len(s.pending); i++ {
		if sc := s.pending[i].score; sc > b {
			b = sc
		}
	}
	if s.done {
		// The explorer finished: only the pending remainder can emit.
		return b
	}
	lb, rb := s.left, s.right
	// Corner bound: a future left chunk against the best right seen or
	// still to come, and symmetrically. Weights are non-negative, so a
	// merged score is at most the sum of the two sides (shared-alias
	// components are double-counted, which only loosens the bound).
	best, cur := [2]float64{lb.best(), rb.best()}, [2]float64{lb.bound, rb.bound}
	if v := topk.WeightedThreshold(unitPair[:], best[:], cur[:]); v > b {
		b = v
	}
	// Stored chunk pairs the explorer has not processed yet (deferred by
	// tile ordering, triangular admission, or a future flush).
	for x := range lb.chunks {
		for y := range rb.chunks {
			if s.seen[join.Tile{X: x, Y: y}] {
				continue
			}
			if v := lb.chunkMax[x] + rb.chunkMax[y]; v > b {
				b = v
			}
		}
	}
	return b
}

// Close ends the branch prefetchers' ownership of the input readers
// before the graph closes the inputs themselves; then the tile buffer
// goes back to its pool and the arena's blocks are released.
func (s *joinOp) Close() error {
	s.done = true
	s.left.release()
	s.right.release()
	if s.pending != nil {
		putCombSlice(s.pending)
		s.pending = nil
	}
	s.arena.release()
	return nil
}
