package engine

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"seco/internal/plan"
	"seco/internal/types"
)

// This file is the compact combination encoding the operator runtime
// computes with. Between the input operator and the driver's result
// boundary a combination is a comb: a score plus a fixed-width component
// vector indexed by the compile-time alias layout, so merging, predicate
// routing and ranking index by slot instead of hashing alias strings and
// rebuilding maps. combs are bump-allocated from per-operator arenas
// whose backing blocks come from (and return to, on Close) process-wide
// sync.Pools, so the steady-state hot loop performs no per-combination
// heap allocation. Map-backed types.Combination values exist only at the
// boundary: the driver materializes the final ranked top-K after
// truncation, before the deferred graph shutdown releases the arenas.

// aliasLayout is the compile-time alias → slot mapping of one compiled
// graph. Slots follow sorted alias order, so slot-order iteration is
// deterministic and the materialized Aliases() cache needs no sorting.
type aliasLayout struct {
	slots   map[string]int
	aliases []string // sorted; aliases[i] owns slot i
	weights []float64
}

// newAliasLayout collects every service alias of the plan into a slot
// layout carrying the run's ranking weight per slot.
func newAliasLayout(p *plan.Plan, weights map[string]float64) *aliasLayout {
	var aliases []string
	seen := map[string]bool{}
	for _, id := range p.NodeIDs() {
		n, _ := p.Node(id)
		if n.Kind == plan.KindService && !seen[n.Alias] {
			seen[n.Alias] = true
			aliases = append(aliases, n.Alias)
		}
	}
	sort.Strings(aliases)
	l := &aliasLayout{
		slots:   make(map[string]int, len(aliases)),
		aliases: aliases,
		weights: make([]float64, len(aliases)),
	}
	for i, a := range aliases {
		l.slots[a] = i
		l.weights[i] = weights[a]
	}
	return l
}

// width is the component-vector length of every comb under this layout.
func (l *aliasLayout) width() int { return len(l.aliases) }

// slot returns the slot of an alias; compile rejects unknown aliases.
func (l *aliasLayout) slot(alias string) (int, error) {
	s, ok := l.slots[alias]
	if !ok {
		return 0, fmt.Errorf("engine: alias %q not in layout", alias)
	}
	return s, nil
}

// comb is the runtime's compact combination: the component vector (nil =
// alias not joined yet) plus the incremental ranking score.
type comb struct {
	score float64
	comps []*types.Tuple
}

// rank recomputes the comb's weighted score in slot order — a fixed,
// deterministic summation order, unlike the map iteration the map-backed
// Rank uses.
func (l *aliasLayout) rank(c *comb) { c.score = l.rankWith(c, -1, nil) }

// rankWith is the score rank would give c with tu at slot, summed in the
// same order, without building the comb; slot -1 scores c as it is.
func (l *aliasLayout) rankWith(c *comb, slot int, tu *types.Tuple) float64 {
	s := 0.0
	for i, t := range c.comps {
		if i == slot {
			t = tu
		}
		if t != nil {
			s += l.weights[i] * t.Score
		}
	}
	return s
}

// materialize converts a comb back to the public map-backed Combination,
// with the sorted alias list precomputed (slot order is sorted order).
func (l *aliasLayout) materialize(c *comb) *types.Combination {
	n := 0
	for _, t := range c.comps {
		if t != nil {
			n++
		}
	}
	comps := make(map[string]*types.Tuple, n)
	aliases := make([]string, 0, n)
	for i, t := range c.comps {
		if t != nil {
			comps[l.aliases[i]] = t
			aliases = append(aliases, l.aliases[i])
		}
	}
	return types.NewCombinationPre(comps, aliases, c.score)
}

// combBlockLen is the number of comb headers per arena block;
// ptrBlockLen is the number of component-pointer cells per block.
const (
	combBlockLen = 256
	ptrBlockLen  = 1024
)

var combBlockPool = sync.Pool{New: func() any {
	b := make([]comb, 0, combBlockLen)
	return &b
}}

var ptrBlockPool = sync.Pool{New: func() any {
	b := make([]*types.Tuple, 0, ptrBlockLen)
	return &b
}}

// combArena bump-allocates combs (header + fixed-width component vector)
// from pooled blocks. An arena is single-owner — each allocating operator
// holds its own and allocates on its consumer goroutine — and release
// returns the blocks to the pools. combs handed out stay valid until
// release, which the graph defers to operator Close: teardown runs only
// after the driver has materialized its results. Every block taken counts
// on the run's held, so graph.shutdown catches an arena never released.
type combArena struct {
	g         *graph
	width     int
	blocks    []*[]comb
	ptrBlocks []*[]*types.Tuple
}

// newArena returns an empty arena of run g, as wide as its alias layout.
func (g *graph) newArena() *combArena {
	return &combArena{g: g, width: g.ex.layout.width()}
}

// new returns a zeroed comb with a width-sized component vector.
func (a *combArena) new() *comb {
	var blk *[]comb
	if n := len(a.blocks); n > 0 && len(*a.blocks[n-1]) < cap(*a.blocks[n-1]) {
		blk = a.blocks[n-1]
	} else {
		blk = combBlockPool.Get().(*[]comb)
		a.blocks = append(a.blocks, blk)
		a.g.held.Add(1)
	}
	*blk = (*blk)[:len(*blk)+1]
	c := &(*blk)[len(*blk)-1]
	c.score = 0
	c.comps = a.ptrs()
	return c
}

// clone returns an arena copy of c (component vector and score).
func (a *combArena) clone(c *comb) *comb {
	d := a.new()
	copy(d.comps, c.comps)
	d.score = c.score
	return d
}

// ptrs carves one zeroed width-sized component vector.
func (a *combArena) ptrs() []*types.Tuple {
	if a.width == 0 {
		return nil
	}
	if a.width > ptrBlockLen {
		// Degenerate layout wider than a block: allocate directly.
		return make([]*types.Tuple, a.width)
	}
	var blk *[]*types.Tuple
	if n := len(a.ptrBlocks); n > 0 && len(*a.ptrBlocks[n-1])+a.width <= cap(*a.ptrBlocks[n-1]) {
		blk = a.ptrBlocks[n-1]
	} else {
		blk = ptrBlockPool.Get().(*[]*types.Tuple)
		a.ptrBlocks = append(a.ptrBlocks, blk)
		a.g.held.Add(1)
	}
	lo := len(*blk)
	*blk = (*blk)[:lo+a.width]
	ps := (*blk)[lo : lo+a.width : lo+a.width]
	clear(ps)
	return ps
}

// poisonTuple fills poisonComps, the component vector of every released
// comb: a comb read after its arena's release scores NaN and resolves no
// attribute, so the misuse fails loudly instead of reading plausible
// zeros.
var (
	poisonTuple = types.NewTuple(math.NaN())
	poisonComps = func() []*types.Tuple {
		v := make([]*types.Tuple, ptrBlockLen)
		for i := range v {
			v[i] = poisonTuple
		}
		return v
	}()
	poisonComb = comb{score: math.NaN(), comps: poisonComps}
)

// release poisons the arena's combs, clears its component blocks and
// returns both to the pools. The owner must not allocate from, nor
// anything dereference combs of, this arena afterwards.
func (a *combArena) release() {
	a.g.held.Add(-int64(len(a.blocks) + len(a.ptrBlocks)))
	for _, blk := range a.blocks {
		for i := range *blk {
			(*blk)[i] = poisonComb
		}
		*blk = (*blk)[:0]
		combBlockPool.Put(blk)
	}
	a.blocks = nil
	for _, blk := range a.ptrBlocks {
		clear((*blk)[:cap(*blk)])
		*blk = (*blk)[:0]
		ptrBlockPool.Put(blk)
	}
	a.ptrBlocks = nil
}

// pooled is the handle of a pooled chunk buffer: comb slices (branch
// chunks, join output) and tuple slices (service fetch prefixes). Its
// owner keeps the handle and puts it back, with the buffer as it has
// grown, so no put boxes a slice header. run stamps the graph holding the
// handle (nil while pooled): a put of a handle the run does not hold
// panics, and graph.shutdown checks that every handle came back.
type pooled[T any] struct {
	s   []T
	run *graph
}

// slicePool pools the handles of one element type's chunk buffers.
type slicePool[T any] struct{ p sync.Pool }

var (
	combSlices  = newSlicePool[*comb](32)
	tupleSlices = newSlicePool[*types.Tuple](64)
)

func newSlicePool[T any](size int) *slicePool[T] {
	return &slicePool[T]{p: sync.Pool{New: func() any { return &pooled[T]{s: make([]T, 0, size)} }}}
}

// get takes a handle for run g, its buffer empty and regrown to the hint
// when the pooled one is smaller. The handle is stamped as it leaves the
// pool, so any handle the run takes must come back.
func (sp *slicePool[T]) get(g *graph, hint int) *pooled[T] {
	h := sp.p.Get().(*pooled[T])
	h.run = g
	g.held.Add(1)
	if hint > cap(h.s) {
		h.s = make([]T, 0, hint)
	}
	return h
}

// put returns run g's handle with s, the buffer as its owner grew it,
// cleared so the pool retains no combinations or tuples.
func (sp *slicePool[T]) put(g *graph, h *pooled[T], s []T) {
	if h.run != g {
		panic("engine: put of a pooled buffer the run does not hold")
	}
	h.run = nil
	g.held.Add(-1)
	clear(s[:cap(s)])
	h.s = s[:0]
	sp.p.Put(h)
}
