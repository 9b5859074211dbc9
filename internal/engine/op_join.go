package engine

import (
	"context"
	"math"
	"runtime/pprof"

	"seco/internal/fidelity"
	"seco/internal/join"
	"seco/internal/types"
)

// This file implements the parallel-join operator: the event-based join
// explorer (merge-scan or nested-loop, per the node's strategy) driven
// against live chunk arrivals from the two input operators. Each input is
// wrapped in a joinBranch whose single outstanding prefetch goroutine
// assembles the next chunk concurrently with the other branch — the
// parallel service invocation the plan topology promises.
//
// Tile filling has two modes. When every pair predicate of the node is a
// pure atomic equality, the operator builds a hash index over each right
// chunk — pre-sized from the branch chunk sizes the optimizer's plan
// statistics determine — and probes it with the left rows, verifying
// bucket candidates with the compiled predicates (hash-then-verify, so
// false hash positives are impossible). The nested-loop scan remains both
// the fallback for non-equality predicates and the runtime escape hatch
// whenever a key column carries mixed value classes, where the hash path
// could hide the cross-kind comparison errors the scan would surface.
// Both modes emit identical combinations in identical order.

// joinBranch is one input of the join operator. A single outstanding
// prefetch goroutine owns the reader and assembles the next chunk;
// results are handed over through a capacity-1 channel, so both branches
// fetch concurrently while the explorer is driven from one goroutine.
type joinBranch struct {
	reader Operator
	// id names the branch's input plan node — the pprof label of the
	// prefetch goroutine when the run is observed.
	id   string
	size int
	ch   chan branchPull
	// outstanding marks a prefetch in flight whose result has not been
	// consumed yet; Close drains it so the goroutine's reader ownership
	// has ended before the graph closes the inputs.
	outstanding bool

	chunks   [][]*comb
	chunkMax []float64
	bestSeen float64
	// bound is the reader's bound snapshot as of the last completed pull
	// (the reader itself is owned by the prefetch goroutine while a pull
	// is outstanding).
	bound  float64
	noMore bool
}

type branchPull struct {
	combos []*comb
	bound  float64
	short  bool // the reader ran dry during this pull
	err    error
}

func (g *graph) startPull(ctx context.Context, b *joinBranch) {
	b.outstanding = true
	g.wg.Add(1)
	observed := g.ex.run.Trace != nil || g.ex.engine.metrics != nil
	go func() {
		defer g.wg.Done()
		pull := func(ctx context.Context) {
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
			b.ch <- res
		}
		if observed {
			// Label the prefetcher with its input node, so profiles split
			// the two concurrently-fetching join branches.
			pprof.Do(ctx, pprof.Labels("seco.operator", b.id), pull)
		} else {
			pull(ctx)
		}
	}()
}

// joinOp drives the event-based join explorer against live chunk
// arrivals. Chunk sizes, tile contents and tile order are deterministic
// functions of the input streams (the explorer's decisions depend only on
// fetch counts, exhaustion and processed tiles), so both driver policies
// enumerate the same combinations in the same order.
type joinOp struct {
	*joinProg
	g           *graph
	ex          *executor
	explorer    *join.Explorer
	left, right *joinBranch
	arena       *combArena
	// cand tallies the candidate pairs the tiles examined (bucket
	// candidates under the hash path, the full cross product under the
	// nested scan); nil when fidelity is off.
	cand *fidelity.Counter

	// orient caches the per-predicate orientation (which branch holds
	// which predicate side), resolved once from the first tile — branch
	// alias sets are uniform across a branch's combs.
	orient      []int8 // 0 = undetermined/skip, 1 = pred left on X, 2 = pred left on Y
	orientReady bool
	// rIdx lazily caches one hash index per right (Y) chunk.
	rIdx []*chunkIndex

	pending    []*comb
	pendingIdx int
	seen       map[join.Tile]bool
	started    bool
	done       bool
}

// newBranch wraps a join input reader with the single-outstanding
// prefetch state.
func newBranch(reader Operator, id string, size int) *joinBranch {
	return &joinBranch{
		reader: reader, id: id, size: size,
		ch: make(chan branchPull, 1), bestSeen: math.Inf(-1), bound: reader.Bound(),
	}
}

func (g *graph) newJoinOp(pn *progNode) (Operator, error) {
	jp := pn.join
	lb := newBranch(g.reader(pn.inputs[0]), g.ex.nodes[pn.inputs[0]].id, jp.sizes[0])
	rb := newBranch(g.reader(pn.inputs[1]), g.ex.nodes[pn.inputs[1]].id, jp.sizes[1])
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
		joinProg: jp, g: g, ex: g.ex, explorer: explorer,
		left: lb, right: rb,
		arena:  newCombArena(g.ex.layout.width()),
		orient: make([]int8, len(jp.preds)),
		seen:   map[join.Tile]bool{},
		cand:   g.fid.Counter(pn.id),
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
			s.g.startPull(ctx, s.left)
			s.g.startPull(ctx, s.right)
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
			b := s.left
			if ev.Side == join.SideY {
				b = s.right
			}
			if err := s.resolveFetch(ctx, ev.Side, b); err != nil {
				return nil, err
			}
		case join.EventTile:
			if err := s.fillTile(ev.Tile); err != nil {
				return nil, err
			}
		}
	}
}

// resolveFetch consumes the outstanding prefetch for the side the explorer
// asked about, reveals the chunk (or reports exhaustion) and keeps one
// pull in flight.
func (s *joinOp) resolveFetch(ctx context.Context, side join.Side, b *joinBranch) error {
	if b.noMore {
		s.explorer.ReportExhausted(side)
		return nil
	}
	res := <-b.ch
	b.outstanding = false
	if res.err != nil {
		putCombSlice(res.combos)
		return res.err
	}
	b.bound = res.bound
	if res.short {
		b.noMore = true
	}
	if len(res.combos) == 0 {
		putCombSlice(res.combos)
		b.bound = math.Inf(-1)
		s.explorer.ReportExhausted(side)
		return nil
	}
	b.chunks = append(b.chunks, res.combos)
	m := maxScore(res.combos)
	b.chunkMax = append(b.chunkMax, m)
	if m > b.bestSeen {
		b.bestSeen = m
	}
	if !b.noMore {
		s.g.startPull(ctx, b)
	}
	return nil
}

// resolveOrient fixes, from one concrete chunk pair, which branch holds
// each predicate's sides. Alias sets are uniform within a branch, so the
// answer holds for every subsequent tile.
func (s *joinOp) resolveOrient(cl, cr *comb) {
	for i := range s.preds {
		jp := &s.preds[i]
		switch {
		case cl.comps[jp.leftSlot] != nil && cr.comps[jp.rightSlot] != nil:
			s.orient[i] = 1
		case cr.comps[jp.leftSlot] != nil && cl.comps[jp.rightSlot] != nil:
			s.orient[i] = 2
		default:
			s.orient[i] = 0 // not split across the branches; checked earlier
		}
	}
	s.orientReady = true
}

func (s *joinOp) fillTile(t join.Tile) error {
	s.seen[t] = true
	if s.pending == nil {
		s.pending = getCombSlice(s.left.size * s.right.size / 4)
	}
	s.pending = s.pending[:0]
	s.pendingIdx = 0
	cl, cr := s.left.chunks[t.X], s.right.chunks[t.Y]
	if len(cl) == 0 || len(cr) == 0 {
		return nil
	}
	if !s.orientReady {
		s.resolveOrient(cl[0], cr[0])
	}
	if s.hashable {
		if done, err := s.fillTileHash(t, cl, cr); done || err != nil {
			return err
		}
		// Key-class conflict: rerun the tile through the exact scan.
		s.pending = s.pending[:0]
	}
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

// fillTileHash fills the tile through a hash index over the right chunk,
// probing with the left rows and verifying candidates with the compiled
// predicates. It reports done=false (leaving partial pending state for
// the caller to reset) when a key column carries mixed value classes —
// the case where only the nested scan reproduces the error semantics of
// pairwise evaluation.
func (s *joinOp) fillTileHash(t join.Tile, cl, cr []*comb) (bool, error) {
	idx := s.indexFor(t.Y, cr)
	if idx == nil {
		return false, nil
	}
	// Candidates examined accumulate locally and count only when the hash
	// path commits to the tile — a key-class fallback reruns it through
	// the nested scan, which tallies the full cross product itself.
	var examined int64
	var clsArr [16]uint8
	for _, l := range cl {
		h, cls, null, bad := s.probeKey(l, clsArr[:0])
		if bad {
			return false, nil
		}
		if null {
			continue // a null key never equals anything: no match, no error
		}
		if !idx.classesCompatible(cls) {
			return false, nil
		}
		examined += int64(len(idx.buckets[h]))
		for _, ri := range idx.buckets[h] {
			r := cr[ri]
			ok, err := matchAcross(l, r, s.preds)
			if err != nil {
				s.cand.Add(examined)
				return true, err
			}
			if !ok {
				continue // hash collision; verification rejected it
			}
			merged, ok := mergeBranches(s.arena, s.ex.layout, l, r)
			if !ok {
				continue
			}
			s.pending = append(s.pending, merged)
		}
	}
	s.cand.Add(examined)
	return true, nil
}

// valueClass buckets a value's kind for hash-compatibility tracking:
// numeric kinds share a class (they compare with each other), every other
// kind is its own class. classNull marks a null (absent) key part.
const (
	classNull = iota
	classNumeric
	classString
	classBool
	classDate
)

func valueClass(v types.Value) uint8 {
	switch v.Kind() {
	case types.KindInt, types.KindFloat:
		return classNumeric
	case types.KindString:
		return classString
	case types.KindBool:
		return classBool
	case types.KindDate:
		return classDate
	default:
		return classNull
	}
}

// hashValue folds a value into an FNV-1a hash using a canonical encoding
// per class, so numerically equal int/float keys hash identically.
func hashValue(h uint64, v types.Value) uint64 {
	const prime = 1099511628211
	switch valueClass(v) {
	case classNumeric:
		bits := math.Float64bits(v.FloatVal())
		for i := 0; i < 8; i++ {
			h = (h ^ (bits & 0xff)) * prime
			bits >>= 8
		}
	case classString:
		s := v.Str()
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * prime
		}
		h = (h ^ 0xff) * prime // length delimiter for multi-column keys
	case classBool:
		b := uint64(0)
		if v.BoolVal() {
			b = 1
		}
		h = (h ^ b) * prime
	case classDate:
		bits := uint64(v.Time().UnixNano())
		for i := 0; i < 8; i++ {
			h = (h ^ (bits & 0xff)) * prime
			bits >>= 8
		}
	}
	return h
}

// chunkIndex is the hash index of one right chunk: bucket → row indices
// in chunk order, plus the per-column value class the index saw. A nil
// chunkIndex (or classes conflict) routes the tile to the nested scan.
type chunkIndex struct {
	buckets map[uint64][]int
	classes []uint8 // one per key column; classNull until a value is seen
}

// keyCols enumerates the key columns of the join in predicate order: for
// each split predicate, the (slot, attr) the given branch side
// contributes. left selects the X branch's columns.
func (s *joinOp) keyCols(left bool, fn func(slot int, attr string)) {
	for i := range s.preds {
		jp := &s.preds[i]
		switch s.orient[i] {
		case 1: // predicate left side lives on X
			if left {
				for _, a := range jp.eqLeft {
					fn(jp.leftSlot, a)
				}
			} else {
				for _, a := range jp.eqRight {
					fn(jp.rightSlot, a)
				}
			}
		case 2: // predicate left side lives on Y
			if left {
				for _, a := range jp.eqRight {
					fn(jp.rightSlot, a)
				}
			} else {
				for _, a := range jp.eqLeft {
					fn(jp.leftSlot, a)
				}
			}
		}
	}
}

// indexFor returns the (cached) hash index of right chunk y, or nil when
// the chunk cannot be indexed consistently (mixed classes in a key
// column) or the join has no active key columns.
func (s *joinOp) indexFor(y int, cr []*comb) *chunkIndex {
	for len(s.rIdx) <= y {
		s.rIdx = append(s.rIdx, nil)
	}
	if idx := s.rIdx[y]; idx != nil {
		if idx.buckets == nil {
			return nil // previously found unindexable
		}
		return idx
	}
	nCols := 0
	s.keyCols(false, func(int, string) { nCols++ })
	if nCols == 0 {
		s.rIdx[y] = &chunkIndex{}
		return nil
	}
	// Pre-size the bucket table to the chunk size the plan's service
	// statistics fixed for this branch — the hash join never rehashes.
	idx := &chunkIndex{
		buckets: make(map[uint64][]int, len(cr)),
		classes: make([]uint8, nCols),
	}
	bad := false
	for ri, r := range cr {
		h := uint64(14695981039346656037)
		null := false
		col := 0
		s.keyCols(false, func(slot int, attr string) {
			if bad {
				return
			}
			t := r.comps[slot]
			if t == nil {
				// Unexpectedly absent component: only the scan's per-pair
				// split checks are exact here.
				bad = true
				return
			}
			v := t.Atomic(attr)
			cls := valueClass(v)
			if cls == classNull {
				null = true
			} else if idx.classes[col] == classNull {
				idx.classes[col] = cls
			} else if idx.classes[col] != cls {
				bad = true // mixed classes: unindexable
				return
			}
			h = hashValue(h, v)
			col++
		})
		if bad {
			s.rIdx[y] = &chunkIndex{}
			return nil
		}
		if null {
			continue // rows with a null key part can never match
		}
		idx.buckets[h] = append(idx.buckets[h], ri)
	}
	s.rIdx[y] = idx
	return idx
}

// probeKey computes a left row's key hash and column classes; null
// reports a null key part (the row matches nothing), bad an absent
// component (the tile must fall back to the scan).
func (s *joinOp) probeKey(l *comb, cls []uint8) (h uint64, out []uint8, null, bad bool) {
	h = 14695981039346656037
	out = cls[:0]
	s.keyCols(true, func(slot int, attr string) {
		if bad {
			return
		}
		t := l.comps[slot]
		if t == nil {
			bad = true
			return
		}
		v := t.Atomic(attr)
		c := valueClass(v)
		if c == classNull {
			null = true
		}
		out = append(out, c)
		h = hashValue(h, v)
	})
	return h, out, null, bad
}

// classesCompatible reports whether a probe's column classes agree with
// everything the index saw: any non-null class pair that differs would
// make some row pair comparison a cross-kind error under the scan.
func (idx *chunkIndex) classesCompatible(cls []uint8) bool {
	for i, c := range cls {
		if c == classNull || i >= len(idx.classes) {
			continue
		}
		if idx.classes[i] != classNull && idx.classes[i] != c {
			return false
		}
	}
	return true
}

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
	lBest := math.Max(lb.bestSeen, lb.bound)
	rBest := math.Max(rb.bestSeen, rb.bound)
	// Corner bounds: a future left chunk against the best right seen or
	// still to come, and symmetrically. Weights are non-negative, so a
	// merged score is at most the sum of the two sides (shared-alias
	// components are double-counted, which only loosens the bound).
	if !math.IsInf(lb.bound, -1) && !math.IsInf(rBest, -1) {
		if v := lb.bound + rBest; v > b {
			b = v
		}
	}
	if !math.IsInf(rb.bound, -1) && !math.IsInf(lBest, -1) {
		if v := rb.bound + lBest; v > b {
			b = v
		}
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

// Close drains any outstanding branch pulls, so the prefetch goroutines'
// ownership of the input readers has ended (the capacity-1 hand-over
// channel guarantees a sender never blocks) before the graph closes the
// inputs themselves; then the chunk buffers go back to their pool and the
// arena's blocks are released.
func (s *joinOp) Close() error {
	s.done = true
	for _, b := range []*joinBranch{s.left, s.right} {
		if b == nil {
			continue
		}
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
	if s.pending != nil {
		putCombSlice(s.pending)
		s.pending = nil
	}
	s.rIdx = nil
	s.arena.release()
	return nil
}
