package engine

import (
	"context"
	"math"
	"runtime/pprof"

	"seco/internal/join"
)

// This file holds the input side of the one join operator
// (op_multijoin.go) and the tile schedule of a binary join whose
// predicates are not all atomic equalities: join.Explorer with the node's
// strategy (merge-scan or nested-loop invocation, rectangular or
// triangular completion), where a fetch event takes the named branch's
// next chunk and a tile event joins one chunk pair. The explorer's
// decisions depend only on fetch counts, exhaustion and processed tiles,
// so both driver policies enumerate the same combinations in the same
// order.

// joinBranch is one input of the join operator, storing the rows that
// have arrived once, flat, with the chunks they came in. Under a clock
// that waits, a single outstanding prefetch goroutine owns the reader and
// appends the next chunk past the rows the join reads; the result is
// handed over through a capacity-1 channel, so all branches fetch
// concurrently — the parallel service invocation the plan topology
// promises — while the join is driven from one goroutine. Under a
// VirtualClock there is no wait to overlap: take pulls the reader itself.
type joinBranch struct {
	g      *graph
	reader Operator
	// id names the branch's input plan node — the pprof label of the
	// prefetch goroutine when the run is observed.
	id   string
	size int
	// ch hands prefetched chunks over; nil under a VirtualClock.
	ch chan branchPull
	// outstanding marks a prefetch in flight whose result has not been
	// consumed yet; release drains it so the goroutine's reader ownership
	// has ended before the graph closes the inputs.
	outstanding bool

	// rows holds every arrived row in arrival order, in the pooled buffer
	// buf holds; chunks records where each arrived chunk ends and its best
	// score.
	rows     []*comb
	buf      *pooled[*comb]
	chunks   []chunkMark
	bestSeen float64
	// bound is the reader's bound snapshot as of the last completed pull
	// (the reader itself is owned by the prefetch goroutine while a pull
	// is outstanding); -Inf once the branch has run dry.
	bound  float64
	noMore bool

	// The join's binding state for this branch: the row bound in the
	// candidate being built (nil while unbound), the window [lo, hi) of
	// rows the current join step draws from, and the candidate buffer
	// expand fills when it binds this branch.
	assign *comb
	lo, hi int
	cands  []int32
}

// chunkMark is one arrived chunk of a branch: the end of its rows and the
// best score among them.
type chunkMark struct {
	end int
	max float64
}

// branchPull is one pull's result: the rows with the chunk appended and
// the buffer handle, which crosses the prefetch goroutine with them.
type branchPull struct {
	buf   *pooled[*comb]
	rows  []*comb
	bound float64
	short bool // the reader ran dry during this pull
	err   error
}

// newBranch wraps input node `in` of a join with the single-outstanding
// prefetch state.
func (g *graph) newBranch(in, size int) joinBranch {
	reader := g.reader(in)
	b := joinBranch{
		g: g, reader: reader, id: g.ex.nodes[in].id, size: size,
		bestSeen: math.Inf(-1), bound: reader.Bound(),
	}
	if !g.ex.engine.virtual {
		b.ch = make(chan branchPull, 1)
	}
	return b
}

// start launches the branch's next prefetch. Under a VirtualClock the
// next pull is only due: take runs it on the consumer's goroutine.
func (b *joinBranch) start(ctx context.Context) {
	g := b.g
	if g.ex.engine.virtual {
		return
	}
	b.outstanding = true
	buf, rows := b.buf, b.rows
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		b.ch <- b.labeledPull(ctx, buf, rows)
	}()
}

// labeledPull runs pull, labelled with the branch's input node when the
// run is observed, so profiles split the join branches.
func (b *joinBranch) labeledPull(ctx context.Context, buf *pooled[*comb], rows []*comb) (res branchPull) {
	if b.g.ex.run.Trace == nil && b.g.ex.engine.metrics == nil {
		return b.pull(ctx, buf, rows)
	}
	pprof.Do(ctx, pprof.Labels("seco.operator", b.id), func(ctx context.Context) {
		res = b.pull(ctx, buf, rows)
	})
	return res
}

// pull appends the branch's next chunk from its reader to rows, taking
// the buffer on the first pull. Only the capacity beyond len(rows) is
// written, which the join never reads.
func (b *joinBranch) pull(ctx context.Context, buf *pooled[*comb], rows []*comb) branchPull {
	if buf == nil {
		buf = combSlices.get(b.g, b.size)
		rows = buf.s
	}
	res := branchPull{buf: buf, rows: rows}
	for n := 0; n < b.size; n++ {
		c, err := b.reader.Next(ctx)
		if err != nil {
			res.err = err
			break
		}
		if c == nil {
			res.short = true
			break
		}
		res.rows = append(res.rows, c)
	}
	res.bound = b.reader.Bound()
	return res
}

// take consumes the due pull: it records the arrived chunk (with its
// score maximum), the reader's bound and whether the reader ran dry, and
// keeps one pull due while more can come. It returns the chunk's rows; an
// empty chunk means the branch has nothing more to deliver.
func (b *joinBranch) take(ctx context.Context) ([]*comb, error) {
	if b.noMore {
		return nil, nil
	}
	var res branchPull
	if b.g.ex.engine.virtual {
		res = b.labeledPull(ctx, b.buf, b.rows)
	} else {
		res = <-b.ch
	}
	b.outstanding = false
	from := len(b.rows)
	b.buf, b.rows = res.buf, res.rows[:from]
	if res.err != nil {
		return nil, res.err
	}
	b.bound = res.bound
	b.noMore = res.short
	if len(res.rows) == from {
		b.bound, b.noMore = math.Inf(-1), true
		return nil, nil
	}
	b.rows = res.rows
	chunk := b.rows[from:]
	m := maxScore(chunk)
	b.chunks = append(b.chunks, chunkMark{end: len(b.rows), max: m})
	if m > b.bestSeen {
		b.bestSeen = m
	}
	if !b.noMore {
		b.start(ctx)
	}
	return chunk, nil
}

// chunk returns the row window of arrived chunk i.
func (b *joinBranch) chunk(i int) (lo, hi int) {
	if i > 0 {
		lo = b.chunks[i-1].end
	}
	return lo, b.chunks[i].end
}

// best is the top score the branch has shown or can still show.
func (b *joinBranch) best() float64 { return math.Max(b.bestSeen, b.bound) }

// release drains the outstanding pull, so the prefetch goroutine's
// ownership of the input reader has ended (the capacity-1 hand-over
// channel guarantees a sender never blocks) before the graph closes the
// input itself, and returns the row buffer to its pool.
func (b *joinBranch) release() {
	if b.outstanding {
		res := <-b.ch
		b.outstanding = false
		b.buf, b.rows = res.buf, res.rows
	}
	if b.buf != nil {
		combSlices.put(b.g, b.buf, b.rows)
	}
	b.buf, b.rows, b.chunks = nil, nil, nil
}

// explore runs one step of the explorer's schedule: a fetch event takes
// the named branch's next chunk (reporting the side exhausted when none
// comes), a tile event joins the rows of one chunk pair.
func (s *multiJoinOp) explore(ctx context.Context) error {
	ev, ok := s.explorer.Next()
	if !ok {
		s.done = true
		return nil
	}
	if ev.Kind == join.EventFetch {
		chunk, err := s.arrive(ctx, int(ev.Side))
		if err == nil && chunk == nil {
			s.explorer.ReportExhausted(ev.Side)
		}
		return err
	}
	l, r := &s.branches[0], &s.branches[1]
	l.lo, l.hi = l.chunk(ev.Tile.X)
	r.lo, r.hi = r.chunk(ev.Tile.Y)
	return s.joinBox(0)
}

// tileRank is the representative rank the explorer orders admitted tiles
// by: the product of the first (best) scores of the two chunks.
func (s *multiJoinOp) tileRank(t join.Tile) float64 {
	l, r := &s.branches[0], &s.branches[1]
	if t.X >= len(l.chunks) || t.Y >= len(r.chunks) {
		return 0
	}
	xlo, xhi := l.chunk(t.X)
	ylo, yhi := r.chunk(t.Y)
	return chunkTop(l.rows[xlo:xhi]) * chunkTop(r.rows[ylo:yhi])
}

// deferred is the best score a stored chunk pair the explorer has not
// processed yet can still yield (deferred by tile ordering, triangular
// admission, or a future flush): the sum of the two chunks' maxima.
func (s *multiJoinOp) deferred() float64 {
	b := math.Inf(-1)
	l, r := &s.branches[0], &s.branches[1]
	for x, cx := range l.chunks {
		for y, cy := range r.chunks {
			if s.explorer.Processed(join.Tile{X: x, Y: y}) {
				continue
			}
			if v := cx.max + cy.max; v > b {
				b = v
			}
		}
	}
	return b
}
