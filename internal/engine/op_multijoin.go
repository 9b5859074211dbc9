package engine

import (
	"context"
	"math"

	"seco/internal/fidelity"
	"seco/internal/topk"
	"seco/internal/types"
)

// This file implements the multi-way ranked join operator: the join core
// of every all-equality join, binary (fan-in 2) or n-ary. All N branches
// prefetch concurrently through joinBranch (op_join.go); arrivals are
// consumed round-robin, and each newly arrived chunk is delta-joined
// against the accumulated rows of every other branch, so by the time Next
// hands a combination out, every stored row combination has been
// enumerated exactly once — there is no deferred-tile backlog, and the
// operator's score bound reduces to the n-ary corner bound of
// topk.WeightedThreshold over the branch frontiers.
//
// Candidate enumeration is a leapfrog-style sorted intersection: every
// hashable equality edge maintains, per endpoint branch, posting lists
// from key to ascending row ids — the engine's one equality index. Keys
// fold the columns' types.EqKey bits: interned handles for string values
// (the engine's interner canonicalizes on the fly, so handle equality is
// exact string equality process-wide), canonical float bits for numerics.
// A new row binds its branch; the remaining branches are bound
// most-constrained-first by intersecting the posting lists their bound
// edges select, and every surviving candidate is verified with the
// compiled pair predicates — which also evaluate the bounded-proximity
// edges the legality rules admit. The index records the value class each
// key column has carried: two classes in one column would make some row
// pair a cross-kind comparison, so indexing fails with that comparison's
// error rather than filing the rows under keys that can never meet. A null
// key part matches nothing and is no error.

// multiEdge is one compiled cross-branch predicate of the multi-way
// join, with both endpoint branches resolved and — when the predicate is
// a pure atomic equality — a posting list per endpoint. The program's
// edge table leaves the posting lists nil; each run fills its own copy.
type multiEdge struct {
	jp joinPred
	// bl and br are the branch indexes holding the predicate's left and
	// right alias.
	bl, br int
	// hashable marks a pure atomic-equality edge that can key posting
	// lists; proximity edges are verified per candidate instead, and so
	// is a run's copy of an equality edge once a row brings a key part
	// without an equality key (edgeKey clears the flag).
	hashable bool
	// postL/postR map an edge key to the ascending row ids carrying it,
	// per endpoint branch (hashable edges only).
	postL, postR map[uint64][]int32
	// classOf holds, per key column, the first non-null value either
	// endpoint indexed — the witness of the column's value class.
	classOf []types.Value
}

// multiJoinOp is the n-ary ranked join operator.
type multiJoinOp struct {
	ex       *executor
	branches []*joinBranch
	// rows accumulates every arrived row per branch, flat across chunks
	// (the chunk buffers stay on the branches for pooled release).
	rows [][]*comb
	// edges is this run's copy of the program's edge table, with the
	// posting lists the run fills; incident (edge indexes touching each
	// branch) and ones are the program's, read-only.
	edges    []multiEdge
	incident [][]int
	ones     []float64
	arena    *combArena
	// cand tallies the candidate prefixes the expansion examined
	// (intersection survivors plus scan-fallback rows); nil when fidelity
	// is off.
	cand *fidelity.Counter

	pending    []*comb
	pendingIdx int
	rr         int
	started    bool
	done       bool

	// Scratch buffers reused across Next calls.
	assign  []*comb
	boundB  []bool
	scratch []*types.Tuple
	bestBuf []float64
	curBuf  []float64
	lists   [][]int32
	// candBufs holds one candidate buffer per recursion depth: expand at
	// depth d iterates its candidates while deeper levels intersect into
	// their own buffers.
	candBufs [][]int32
}

func (g *graph) newMultiJoinOp(pn *progNode) Operator {
	mp := pn.multi
	nb := len(pn.inputs)
	branches := make([]*joinBranch, nb)
	for i, in := range pn.inputs {
		branches[i] = g.newBranch(in, mp.sizes[i])
	}
	edges := append([]multiEdge(nil), mp.edges...)
	for i := range edges {
		if e := &edges[i]; e.hashable {
			e.postL = make(map[uint64][]int32, 64)
			e.postR = make(map[uint64][]int32, 64)
			e.classOf = make([]types.Value, len(e.jp.eqLeft))
		}
	}
	width := g.ex.layout.width()
	return &multiJoinOp{
		ex:       g.ex,
		cand:     g.fid.Counter(pn.id),
		branches: branches,
		rows:     make([][]*comb, nb),
		edges:    edges, incident: mp.incident, ones: mp.ones,
		arena:    newCombArena(width),
		assign:   make([]*comb, nb),
		boundB:   make([]bool, nb),
		scratch:  make([]*types.Tuple, width),
		bestBuf:  make([]float64, nb),
		curBuf:   make([]float64, nb),
		candBufs: make([][]int32, nb),
	}
}

func (s *multiJoinOp) Open(ctx context.Context) error {
	for _, b := range s.branches {
		if err := b.reader.Open(ctx); err != nil {
			return err
		}
	}
	return nil
}

func (s *multiJoinOp) Next(ctx context.Context) (*comb, error) {
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
			for _, b := range s.branches {
				b.start(ctx)
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		bi := s.nextBranch()
		if bi < 0 {
			s.done = true
			continue
		}
		if err := s.resolve(ctx, bi); err != nil {
			return nil, err
		}
	}
}

// nextBranch picks the next live branch round-robin, or -1 when every
// branch has run dry.
func (s *multiJoinOp) nextBranch() int {
	n := len(s.branches)
	for k := 0; k < n; k++ {
		i := (s.rr + k) % n
		if !s.branches[i].noMore {
			s.rr = (i + 1) % n
			return i
		}
	}
	return -1
}

// resolve consumes the outstanding prefetch of branch bi, appends the
// arrived rows to the branch's accumulated state (rows, posting lists)
// and delta-joins them against every other branch.
func (s *multiJoinOp) resolve(ctx context.Context, bi int) error {
	chunk, err := s.branches[bi].take(ctx)
	if err != nil || chunk == nil {
		return err
	}
	from := len(s.rows[bi])
	s.rows[bi] = append(s.rows[bi], chunk...)
	if err := s.index(bi, from); err != nil {
		return err
	}
	return s.joinDelta(bi, from)
}

// index extends the posting lists of branch bi's hashable edges with the
// rows from index `from` on; appending in arrival order keeps every
// posting list sorted ascending — the invariant the intersection walks
// rely on. Every row passes through here once per incident edge, so this
// is also where a key column mixing value classes is caught.
func (s *multiJoinOp) index(bi, from int) error {
	for _, ei := range s.incident[bi] {
		e := &s.edges[ei]
		if !e.hashable {
			continue
		}
		left := e.bl == bi
		post := e.postR
		if left {
			post = e.postL
		}
		for ri := from; ri < len(s.rows[bi]) && e.hashable; ri++ {
			key, ok, err := s.edgeKey(e, left, s.rows[bi][ri])
			if err != nil {
				return err
			}
			if ok {
				post[key] = append(post[key], int32(ri))
			}
		}
	}
	return nil
}

// edgeKey folds the key columns row c contributes to edge e, as the
// predicate's left or right endpoint. ok is false when the row can match
// nothing through the posting lists: a null key part or an absent
// component matches nothing at all; a part with no equality key (a NaN
// compares equal to every number) demotes the edge to a verified one for
// the rest of the run, and err is the comparison error of a column whose
// class differs from what the edge has indexed before. The class of a
// column is fixed by that check, so the fold covers the key bits alone.
func (s *multiJoinOp) edgeKey(e *multiEdge, left bool, c *comb) (key uint64, ok bool, err error) {
	slot, cols := e.jp.rightSlot, e.jp.eqRight
	if left {
		slot, cols = e.jp.leftSlot, e.jp.eqLeft
	}
	t := c.comps[slot]
	if t == nil {
		return 0, false, nil
	}
	h := uint64(14695981039346656037)
	for i, a := range cols {
		// Canonicalize through the engine's interner, so a string keys on
		// its handle without a trip to the global registry.
		v := s.ex.engine.intern.Value(t.Atomic(a))
		k, keyed := v.EqKey()
		if k.Class == types.ClassNull {
			return 0, false, nil
		}
		if w := e.classOf[i]; w.IsNull() {
			e.classOf[i] = v
		} else if wk, _ := w.EqKey(); wk.Class != k.Class {
			_, err := w.Compare(v)
			return 0, false, err
		}
		if !keyed {
			e.hashable = false
			return 0, false, nil
		}
		h = (h ^ k.Bits) * 1099511628211
		h ^= h >> 32
	}
	return h, true, nil
}

// joinDelta enumerates every combination using at least one of branch
// bi's rows from index `from` on. The delta rows bind branch bi; the
// remaining branches bind most-constrained-first through posting-list
// intersection. Results land in s.pending.
func (s *multiJoinOp) joinDelta(bi, from int) error {
	if s.pending == nil {
		hint := 0
		for _, b := range s.branches {
			hint += b.size
		}
		s.pending = getCombSlice(hint)
	}
	s.pending = s.pending[:0]
	s.pendingIdx = 0
	for i := range s.boundB {
		s.boundB[i] = false
		s.assign[i] = nil
	}
	s.boundB[bi] = true
	for ri := from; ri < len(s.rows[bi]); ri++ {
		s.assign[bi] = s.rows[bi][ri]
		if err := s.expand(1); err != nil {
			return err
		}
	}
	s.boundB[bi] = false
	return nil
}

// expand binds one more branch: the unbound branch with the most
// hashable edges into the bound set (smallest index on ties) is bound
// through the sorted intersection of the posting lists its bound edges
// select; a branch with no hashable bound edge falls back to scanning
// its rows. Every candidate is verified against all its bound edges
// (equality exactly, proximity included) before recursing.
func (s *multiJoinOp) expand(nBound int) error {
	if nBound == len(s.branches) {
		if m, ok := s.mergeMulti(); ok {
			s.pending = append(s.pending, m)
		}
		return nil
	}
	j := s.chooseNext()
	s.lists = s.lists[:0]
	for _, ei := range s.incident[j] {
		e := &s.edges[ei]
		other := e.bl
		if other == j {
			other = e.br
		}
		if !s.boundB[other] || !e.hashable {
			continue
		}
		// Key the bound row on its side, look branch j up on the other.
		// The row was indexed on arrival, so its classes are settled.
		post := e.postR
		if e.bl == j {
			post = e.postL
		}
		key, ok, _ := s.edgeKey(e, e.bl != j, s.assign[other])
		if !ok {
			return nil // this bound row's key matches nothing on branch j
		}
		list := post[key]
		if len(list) == 0 {
			return nil
		}
		s.lists = append(s.lists, list)
	}
	s.boundB[j] = true
	defer func() { s.boundB[j] = false; s.assign[j] = nil }()
	if len(s.lists) == 0 {
		// No equality edge into the bound set yet: scan the branch.
		s.cand.Add(int64(len(s.rows[j])))
		for _, r := range s.rows[j] {
			s.assign[j] = r
			ok, err := s.verify(j)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			if err := s.expand(nBound + 1); err != nil {
				return err
			}
		}
		return nil
	}
	cand := intersectSorted(s.lists, s.candBufs[nBound][:0])
	s.candBufs[nBound] = cand // keep the (possibly grown) buffer for this depth
	s.cand.Add(int64(len(cand)))
	for _, ri := range cand {
		s.assign[j] = s.rows[j][ri]
		ok, err := s.verify(j)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if err := s.expand(nBound + 1); err != nil {
			return err
		}
	}
	return nil
}

// chooseNext picks the unbound branch with the most hashable edges into
// the bound set; smallest index breaks ties (and covers the no-edge
// fallback), keeping the enumeration order deterministic.
func (s *multiJoinOp) chooseNext() int {
	bestJ, bestN := -1, -1
	for j := range s.branches {
		if s.boundB[j] {
			continue
		}
		n := 0
		for _, ei := range s.incident[j] {
			e := &s.edges[ei]
			other := e.bl
			if other == j {
				other = e.br
			}
			if s.boundB[other] && e.hashable {
				n++
			}
		}
		if n > bestN {
			bestJ, bestN = j, n
		}
	}
	return bestJ
}

// verify checks every edge between the just-bound branch j and the rest
// of the bound set with the compiled pair predicates — exact equality
// (discharging hash collisions) plus the proximity conditions posting
// lists cannot key.
func (s *multiJoinOp) verify(j int) (bool, error) {
	for _, ei := range s.incident[j] {
		e := &s.edges[ei]
		other := e.bl
		if other == j {
			other = e.br
		}
		if !s.boundB[other] {
			continue
		}
		lt := s.assign[e.bl].comps[e.jp.leftSlot]
		rt := s.assign[e.br].comps[e.jp.rightSlot]
		if lt == nil || rt == nil {
			continue // component absent: nothing to check, as in matchAcross
		}
		ok, err := e.jp.cp.Match(lt, rt)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// mergeMulti merges the N bound rows into one comb. Branches may share
// upstream components; shared slots must hold the identical component
// tuple or the candidate stems from different upstream rows and does not
// join. The conflict check fills a scratch vector before any arena
// allocation, so rejected candidates never touch the allocator.
func (s *multiJoinOp) mergeMulti() (*comb, bool) {
	sc := s.scratch
	clear(sc)
	for _, p := range s.assign {
		for i, t := range p.comps {
			if t == nil {
				continue
			}
			if sc[i] != nil && sc[i] != t {
				return nil, false
			}
			sc[i] = t
		}
	}
	m := s.arena.new()
	copy(m.comps, sc)
	s.ex.layout.rank(m)
	return m, true
}

// intersectSorted leapfrogs the ascending row-id lists: the first list
// drives, every other list gallops forward to each probe. out is reused
// as the result buffer.
func intersectSorted(lists [][]int32, out []int32) []int32 {
	if len(lists) == 1 {
		return append(out, lists[0]...)
	}
	// Start from the shortest list: the intersection is no larger.
	drive := 0
	for i, l := range lists {
		if len(l) < len(lists[drive]) {
			drive = i
		}
	}
	pos := make([]int, len(lists))
probe:
	for _, v := range lists[drive] {
		for i, l := range lists {
			if i == drive {
				continue
			}
			p := pos[i]
			for p < len(l) && l[p] < v {
				p++
			}
			pos[i] = p
			if p >= len(l) {
				break probe
			}
			if l[p] != v {
				continue probe
			}
		}
		out = append(out, v)
	}
	return out
}

// Bound is the n-ary corner bound: the best score any combination using
// at least one unseen row can still achieve, plus the pending remainder.
// Branch combs carry weighted partial sums already, so the bound composes
// with unit weights.
func (s *multiJoinOp) Bound() float64 {
	b := math.Inf(-1)
	for i := s.pendingIdx; i < len(s.pending); i++ {
		if sc := s.pending[i].score; sc > b {
			b = sc
		}
	}
	if s.done {
		return b
	}
	for i, br := range s.branches {
		s.bestBuf[i], s.curBuf[i] = br.best(), br.bound
	}
	if v := topk.WeightedThreshold(s.ones, s.bestBuf, s.curBuf); v > b {
		b = v
	}
	return b
}

// Close ends the branch prefetchers' ownership of the input readers,
// drops the posting lists and releases the tile buffer and the arena.
func (s *multiJoinOp) Close() error {
	s.done = true
	for _, b := range s.branches {
		b.release()
	}
	for i := range s.rows {
		s.rows[i] = nil
	}
	for i := range s.edges {
		s.edges[i].postL = nil
		s.edges[i].postR = nil
	}
	if s.pending != nil {
		putCombSlice(s.pending)
		s.pending = nil
	}
	s.arena.release()
	return nil
}
