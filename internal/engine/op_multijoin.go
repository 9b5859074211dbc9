package engine

import (
	"context"
	"math"
	"slices"

	"seco/internal/fidelity"
	"seco/internal/join"
	"seco/internal/types"
)

// This file implements the one join operator: every parallel join,
// binary or n-ary, runs here. Its branches read their inputs through
// joinBranch (op_join.go), and each join step joins a box of per-branch
// row windows: the rows of one branch's window bind first, the other
// branches bind most-constrained-first from theirs. What differs between
// joins is only which box comes next:
//
//   - An all-equality join, and every multi-way join, pulls its branches
//     round-robin and delta-joins each arrived chunk against the
//     accumulated rows of every other branch. By the time Next hands a
//     combination out, every stored row combination has been enumerated
//     exactly once, so the score bound is the n-ary corner bound of
//     weightedThreshold over the branch frontiers. On two inputs this is
//     the rank join with a top-k guarantee (HRJN, the method class
//     Section 3.2 defers to the book's next chapter).
//   - Any other binary join runs under the explorer with the node's
//     strategy (op_join.go): each tile is one chunk pair, and the bound
//     adds the best stored chunk pair the explorer has not processed.
//
// Candidate enumeration is a leapfrog-style sorted intersection: every
// hashable equality edge maintains, per endpoint branch, posting lists
// from key to ascending row ids — the engine's one equality index. Keys
// fold the columns' types.EqKey: an FNV-1a hash of the bytes for string
// values, canonical float bits for numerics. Two rows on one key may still
// differ, which the verification below discharges.
// The remaining branches are bound most-constrained-first by intersecting
// the posting lists their bound edges select, clipped to the branch's
// window; a branch with no hashable bound edge scans its window. Every
// surviving candidate is verified with the compiled pair predicates —
// which also evaluate the conditions posting lists cannot key. The index
// records the value class each key column has carried: two classes in one
// column would make some row pair a cross-kind comparison, so indexing
// fails with that comparison's error rather than filing the rows under
// keys that can never meet. A null key part matches nothing and is no
// error.

// multiEdge is one compiled cross-branch predicate of the join, with both
// endpoint branches resolved and — when the predicate is a pure atomic
// equality — a posting list per endpoint. The program's edge table leaves
// the posting lists nil; a run with a hashable edge fills its own copy.
type multiEdge struct {
	jp joinPred
	// bl and br are the branch indexes holding the predicate's left and
	// right alias.
	bl, br int
	// hashable marks a pure atomic-equality edge that can key posting
	// lists; other edges are verified per candidate instead, and so is a
	// run's copy of an equality edge once a row brings a key part without
	// an equality key (edgeKey clears the flag).
	hashable bool
	// postL/postR map an edge key to the ascending row ids carrying it,
	// per endpoint branch (hashable edges only).
	postL, postR map[uint64][]int32
	// classOf holds, per key column, the first non-null value either
	// endpoint indexed — the witness of the column's value class.
	classOf []types.Value
}

// multiJoinOp is the ranked join operator of fan-in two or more.
type multiJoinOp struct {
	ex       *executor
	g        *graph
	branches []joinBranch
	// edges is the program's edge table, or this run's copy of it with
	// the posting lists the run fills when some edge is hashable;
	// incident (edge indexes touching each branch) and ones are the
	// program's, read-only.
	edges    []multiEdge
	incident [][]int
	ones     []float64
	// explorer schedules a binary join by the node's strategy; nil for a
	// round-robin delta join.
	explorer *join.Explorer
	arena    *combArena
	// cand tallies the candidate prefixes the expansion examined
	// (intersection survivors plus scanned window rows); nil when
	// fidelity is off.
	cand *fidelity.Counter

	// pending is the output of the current join step, in the pooled
	// buffer pendingBuf holds.
	pending    []*comb
	pendingBuf *pooled[*comb]
	pendingIdx int
	rr         int
	started    bool
	done       bool

	// Scratch reused across Next calls: the posting lists one expansion
	// intersects, and the corner bound's per-branch best and current
	// scores (one buffer, best first).
	lists    [][]int32
	frontier []float64
}

func (g *graph) newMultiJoinOp(pn *progNode) (Operator, error) {
	mp := pn.multi
	nb := len(pn.inputs)
	s := &multiJoinOp{
		ex:       g.ex,
		g:        g,
		cand:     g.fid.Counter(pn.id),
		branches: make([]joinBranch, nb),
		edges:    mp.edges, incident: mp.incident, ones: mp.ones,
		arena:    g.newArena(),
		frontier: make([]float64, 2*nb),
	}
	for i, in := range pn.inputs {
		s.branches[i] = g.newBranch(in, mp.sizes[i])
	}
	if mp.indexed {
		s.edges = append([]multiEdge(nil), mp.edges...)
		for i := range s.edges {
			if e := &s.edges[i]; e.hashable {
				e.postL = make(map[uint64][]int32)
				e.postR = make(map[uint64][]int32)
				e.classOf = make([]types.Value, len(e.jp.eqLeft))
			}
		}
	}
	if mp.explore {
		// No static fetch limits: branch lengths are unknown up front, so
		// exhaustion is reported live (the explorer rolls the probing fetch
		// back, leaving its state exactly as with a known limit).
		explorer, err := join.NewExplorer(pn.n.Strategy, 0, 0)
		if err != nil {
			return nil, err
		}
		explorer.SetRanker(s.tileRank)
		s.explorer = explorer
	}
	return s, nil
}

func (s *multiJoinOp) Open(ctx context.Context) error {
	for i := range s.branches {
		if err := s.branches[i].reader.Open(ctx); err != nil {
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
			for i := range s.branches {
				s.branches[i].start(ctx)
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var err error
		if s.explorer != nil {
			err = s.explore(ctx)
		} else {
			err = s.roundRobin(ctx)
		}
		if err != nil {
			return nil, err
		}
	}
}

// roundRobin takes the next chunk of the next live branch in turn and
// delta-joins it against everything the other branches hold.
func (s *multiJoinOp) roundRobin(ctx context.Context) error {
	bi := s.nextBranch()
	if bi < 0 {
		s.done = true
		return nil
	}
	chunk, err := s.arrive(ctx, bi)
	if err != nil || chunk == nil {
		return err
	}
	for i := range s.branches {
		b := &s.branches[i]
		b.lo, b.hi = 0, len(b.rows)
	}
	b := &s.branches[bi]
	b.lo = b.hi - len(chunk)
	return s.joinBox(bi)
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

// arrive takes branch bi's next chunk and files its rows in the posting
// lists. A nil chunk means the branch has run dry.
func (s *multiJoinOp) arrive(ctx context.Context, bi int) ([]*comb, error) {
	b := &s.branches[bi]
	chunk, err := b.take(ctx)
	if err != nil || chunk == nil {
		return nil, err
	}
	return chunk, s.index(bi, len(b.rows)-len(chunk))
}

// index extends the posting lists of branch bi's hashable edges with the
// rows from index `from` on; appending in arrival order keeps every
// posting list sorted ascending — the invariant the intersection walks
// rely on. Every row passes through here once per incident edge, so this
// is also where a key column mixing value classes is caught.
func (s *multiJoinOp) index(bi, from int) error {
	rows := s.branches[bi].rows
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
		for ri := from; ri < len(rows) && e.hashable; ri++ {
			key, ok, err := s.edgeKey(e, left, rows[ri])
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
// column is fixed by that check, so the fold covers the key bits (for a
// string, the hash of its bytes) alone.
func (s *multiJoinOp) edgeKey(e *multiEdge, left bool, c *comb) (key uint64, ok bool, err error) {
	slot, cols := e.jp.rightSlot, e.jp.eqRight
	if left {
		slot, cols = e.jp.leftSlot, e.jp.eqLeft
	}
	t := c.comps[slot]
	if t == nil {
		return 0, false, nil
	}
	h := uint64(fnvOffset)
	for i, a := range cols {
		v := t.Atomic(a)
		k, keyed := v.EqKey()
		if k.Class == types.ClassNull {
			return 0, false, nil
		}
		if w := e.classOf[i]; w.IsNull() {
			e.classOf[i] = v
		} else if w.Class() != k.Class {
			_, err := w.Compare(v)
			return 0, false, err
		}
		if !keyed {
			e.hashable = false
			return 0, false, nil
		}
		bits := k.Bits
		if k.Class == types.ClassString {
			bits = fnv1a(k.Str)
		}
		h = (h ^ bits) * fnvPrime
		h ^= h >> 32
	}
	return h, true, nil
}

// The 64-bit FNV-1a parameters. A fixed hash keeps which rows share a
// posting list, and so the verification work, the same on every run.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnv1a hashes a string key part.
func fnv1a(s string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// joinBox enumerates every combination of rows inside the branches'
// windows: branch bi's window rows bind first, in order, and expand binds
// the rest. Results land in s.pending.
func (s *multiJoinOp) joinBox(bi int) error {
	if s.pendingBuf == nil {
		hint := 0
		for i := range s.branches {
			hint += s.branches[i].size
		}
		s.pendingBuf = combSlices.get(s.g, hint)
		s.pending = s.pendingBuf.s
	}
	s.pending = s.pending[:0]
	s.pendingIdx = 0
	b := &s.branches[bi]
	defer func() { b.assign = nil }()
	for _, r := range b.rows[b.lo:b.hi] {
		b.assign = r
		if err := s.expand(1); err != nil {
			return err
		}
	}
	return nil
}

// expand binds one more branch: the unbound branch with the most
// hashable edges into the bound set (smallest index on ties) is bound
// through the sorted intersection of the posting lists its bound edges
// select, clipped to its window; a branch with no hashable bound edge
// falls back to scanning its window. Every candidate is verified against
// all its bound edges before recursing.
func (s *multiJoinOp) expand(nBound int) error {
	if nBound == len(s.branches) {
		if m, ok := s.mergeMulti(); ok {
			s.pending = append(s.pending, m)
		}
		return nil
	}
	j := s.chooseNext()
	bj := &s.branches[j]
	s.lists = s.lists[:0]
	for _, ei := range s.incident[j] {
		e := &s.edges[ei]
		other := e.bl
		if other == j {
			other = e.br
		}
		bound := s.branches[other].assign
		if bound == nil || !e.hashable {
			continue
		}
		// Key the bound row on its side, look branch j up on the other.
		// The row was indexed on arrival, so its classes are settled.
		post := e.postR
		if e.bl == j {
			post = e.postL
		}
		key, ok, _ := s.edgeKey(e, e.bl != j, bound)
		if !ok {
			return nil // this bound row's key matches nothing on branch j
		}
		list := post[key]
		lo, _ := slices.BinarySearch(list, int32(bj.lo))
		hi, _ := slices.BinarySearch(list, int32(bj.hi))
		if lo == hi {
			return nil
		}
		s.lists = append(s.lists, list[lo:hi])
	}
	defer func() { bj.assign = nil }()
	if len(s.lists) == 0 {
		// No equality edge into the bound set yet: scan the window.
		window := bj.rows[bj.lo:bj.hi]
		s.cand.Add(int64(len(window)))
		for _, r := range window {
			if err := s.bind(bj, j, r, nBound); err != nil {
				return err
			}
		}
		return nil
	}
	cand := intersectSorted(s.lists, bj.cands[:0])
	bj.cands = cand // keep the (possibly grown) buffer for this branch
	s.cand.Add(int64(len(cand)))
	for _, ri := range cand {
		if err := s.bind(bj, j, bj.rows[ri], nBound); err != nil {
			return err
		}
	}
	return nil
}

// bind binds row r on branch j and, when it passes the bound edges,
// expands the next branch.
func (s *multiJoinOp) bind(bj *joinBranch, j int, r *comb, nBound int) error {
	bj.assign = r
	ok, err := s.verify(j)
	if err != nil || !ok {
		return err
	}
	return s.expand(nBound + 1)
}

// chooseNext picks the unbound branch with the most hashable edges into
// the bound set; smallest index breaks ties (and covers the no-edge
// fallback), keeping the enumeration order deterministic.
func (s *multiJoinOp) chooseNext() int {
	bestJ, bestN := -1, -1
	for j := range s.branches {
		if s.branches[j].assign != nil {
			continue
		}
		n := 0
		for _, ei := range s.incident[j] {
			e := &s.edges[ei]
			other := e.bl
			if other == j {
				other = e.br
			}
			if s.branches[other].assign != nil && e.hashable {
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
// (discharging hash collisions) plus the conditions posting lists cannot
// key.
func (s *multiJoinOp) verify(j int) (bool, error) {
	for _, ei := range s.incident[j] {
		e := &s.edges[ei]
		l, r := s.branches[e.bl].assign, s.branches[e.br].assign
		if l == nil || r == nil {
			continue
		}
		lt, rt := l.comps[e.jp.leftSlot], r.comps[e.jp.rightSlot]
		if lt == nil || rt == nil {
			continue // component absent: nothing to check
		}
		ok, err := e.jp.cp.Match(lt, rt)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// mergeMulti merges the bound rows into one comb. Branches may share
// upstream components (both sides of the travel plan's join carry the
// Conference and Weather tuples that fed them); shared slots must hold the
// identical component tuple or the candidate stems from different
// upstream rows and does not join. The conflict check runs before any
// arena allocation, so rejected candidates never touch the allocator.
func (s *multiJoinOp) mergeMulti() (*comb, bool) {
	for i := 0; i < s.arena.width; i++ {
		var t *types.Tuple
		for b := range s.branches {
			u := s.branches[b].assign.comps[i]
			if u == nil {
				continue
			}
			if t != nil && t != u {
				return nil, false
			}
			t = u
		}
	}
	m := s.arena.new()
	for b := range s.branches {
		for i, t := range s.branches[b].assign.comps {
			if t != nil {
				m.comps[i] = t
			}
		}
	}
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

// Bound is the corner bound: the best score any combination using at
// least one unseen row can still achieve, plus the pending remainder and,
// under the explorer, the stored chunk pairs it has not processed yet.
// Branch combs carry weighted partial sums already, so the bound composes
// with unit weights (shared-alias components are double-counted, which
// only loosens it).
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
	n := len(s.branches)
	best, cur := s.frontier[:n], s.frontier[n:]
	for i := range s.branches {
		best[i], cur[i] = s.branches[i].best(), s.branches[i].bound
	}
	if v := weightedThreshold(s.ones, best, cur); v > b {
		b = v
	}
	if s.explorer != nil {
		if v := s.deferred(); v > b {
			b = v
		}
	}
	return b
}

// weightedThreshold is the rank join's corner bound over n ranked inputs
// under the chapter's weighted-sum ranking Σ wᵢ·sᵢ: best[i] is the top
// score seen on input i, cur[i] the score at its current frontier
// (unseen tuples score at most cur[i]). The bound is the best total
// achievable by a combination using at least one unseen component — for
// each input, substitute its frontier while every other input
// contributes its best. A frontier of -Inf marks an exhausted input,
// which offers no unseen tuple and so no term; a best of -Inf marks a
// silent input (nothing seen, nothing to come), which blocks every
// combination through it. Weights must be non-negative. The arithmetic
// order (total − wᵢ·bestᵢ + wᵢ·curᵢ) is fixed: the pull driver halts on
// exact ties.
func weightedThreshold(weights, best, cur []float64) float64 {
	if len(weights) != len(best) || len(weights) != len(cur) {
		panic("engine: weightedThreshold length mismatch")
	}
	total := 0.0
	for i, w := range weights {
		if math.IsInf(best[i], -1) {
			return math.Inf(-1)
		}
		total += w * best[i]
	}
	tau := math.Inf(-1)
	for i, w := range weights {
		if math.IsInf(cur[i], -1) {
			continue
		}
		if v := total - w*best[i] + w*cur[i]; v > tau {
			tau = v
		}
	}
	return tau
}

// Close ends the branch prefetchers' ownership of the input readers and
// returns the row buffers, the output buffer and the arena's blocks.
func (s *multiJoinOp) Close() {
	s.done = true
	for i := range s.branches {
		s.branches[i].release()
	}
	if s.pendingBuf != nil {
		combSlices.put(s.g, s.pendingBuf, s.pending)
		s.pendingBuf, s.pending = nil, nil
	}
	s.arena.release()
}
