package service

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"seco/internal/mart"
	"seco/internal/types"
)

// Table is an in-memory Service backed by a slice of tuples. It is the
// substrate standing in for remote web services: the synthetic scenario
// generators load it with deterministic data, and it then behaves exactly
// like the chapter's services — it honours access limitations (all input
// paths must be bound), filters rows by the input binding with the
// single-sub-tuple repeating-group semantics of Section 3.1, and serves the
// matching rows in decreasing score order, chunk by chunk.
//
// Loading (Add, SetMatchOp) must finish before invocations start; from then
// on Invoke is safe for concurrent use. The first Invoke after the last
// load freezes the rows into a tableIndex, and every invocation is answered
// from it.
type Table struct {
	si    *mart.Interface
	stats Stats
	rows  []*types.Tuple
	// matchOps optionally overrides the comparison used for an input
	// path; the default is equality. The running example uses OpGe for
	// Movie1's Openings.Date input ("opening after the given date").
	matchOps map[string]types.Op

	// idx is the frozen index, nil until the first Invoke after a load;
	// mu serializes its construction.
	mu  sync.Mutex
	idx atomic.Pointer[tableIndex]
}

// NewTable builds a table service over si with the given statistics.
func NewTable(si *mart.Interface, stats Stats) (*Table, error) {
	if err := stats.Validate(); err != nil {
		return nil, err
	}
	return &Table{si: si, stats: stats, matchOps: make(map[string]types.Op)}, nil
}

// SetMatchOp overrides the comparison operator used when matching the
// given input path against its bound value. The operator is evaluated as
// "row value op bound value", and must be the comparator of the query
// predicates that cover the path (see Service): a path a pipe binds keeps
// the default, equality.
func (t *Table) SetMatchOp(path string, op types.Op) {
	t.matchOps[path] = op
	t.idx.Store(nil)
}

// Add appends rows to the table. The table keeps the tuples as given and
// serves them without copying.
func (t *Table) Add(rows ...*types.Tuple) {
	t.rows = append(t.rows, rows...)
	t.idx.Store(nil)
}

// Len returns the number of rows loaded.
func (t *Table) Len() int { return len(t.rows) }

// Interface implements Service.
func (t *Table) Interface() *mart.Interface { return t.si }

// Stats implements Service.
func (t *Table) Stats() Stats { return t.stats }

// tableIndex is a table frozen for serving: the rows ranked once, one
// compiled column per input path of the interface, and the composite list
// of the keyed atomic equality columns.
type tableIndex struct {
	t *Table
	// order holds the rows by decreasing score, load order breaking ties;
	// a row's position in it is its rank, and every posting list is
	// ascending in it — candidates arrive ranked and nothing is sorted per
	// invocation.
	order []*types.Tuple
	// cols are the interface's input paths in InputPaths order (sorted,
	// which keeps the paths of one repeating group adjacent).
	cols []*column
	// comp is the composite list of the comp columns; nil when there are
	// none.
	comp *composite
}

// composite files every row under the tuple of its keys on the comp
// columns, in cols order: an all-equality invocation is one lookup, and
// when nothing else filters, the rows it finds are its answer. A row with a
// null on some comp column equals no binding and is filed nowhere. Each row
// has one key tuple, so the lists are segments of one array.
type composite struct {
	// seg numbers each key tuple (encoded by appendEqKey); its rows are
	// rows[start[n]:start[n+1]], in rank order, at positions
	// at[start[n]:start[n+1]] of order.
	seg   map[string]int32
	start []int32
	rows  []*types.Tuple
	at    []int32
}

// column is one matched path, pre-cut and with its operator resolved.
type column struct {
	path       string
	group, sub string // group is "" for an atomic path, else path is group.sub
	op         types.Op
	// kinds holds, for an atomic path, the first value of each non-null
	// kind in load order. Whether the operator can compare two values
	// depends on their kinds alone, so these witnesses decide — before any
	// row is looked at, and with the error the first offending row would
	// raise — whether a bound value is comparable with the whole column.
	kinds []types.Value
	// comp marks an atomic equality input column whose every non-null
	// value has an equality key: its keys make up the composite list, and
	// it has no list of its own. An atomic column without it is matched by
	// comparison.
	comp bool
	// span delimits, for a group path, the sub-tuples of each row in the
	// group's flat numbering: row i owns span[i] ≤ s < span[i+1]. The
	// columns of one group share it.
	span []int32
	// post, on a group equality column whose every non-null value has an
	// equality key, lists per key the rows carrying it in some sub-tuple.
	// keys holds the same keys per sub-tuple, the zero key for null, so
	// that a candidate from one column's list is checked against another
	// column without touching the row's maps.
	post map[types.EqKey][]int32
	keys []types.EqKey
}

// index returns the frozen index, building it on first use.
func (t *Table) index() *tableIndex {
	if ix := t.idx.Load(); ix != nil {
		return ix
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if ix := t.idx.Load(); ix != nil {
		return ix
	}
	ix := t.buildIndex()
	t.idx.Store(ix)
	return ix
}

func (t *Table) buildIndex() *tableIndex {
	ix := &tableIndex{t: t, order: append([]*types.Tuple(nil), t.rows...)}
	sort.SliceStable(ix.order, func(i, j int) bool { return ix.order[i].Score > ix.order[j].Score })
	var comp []*column
	for _, p := range t.si.InputPaths() {
		c := t.newColumn(p)
		if n := len(ix.cols); c.group != "" && n > 0 && ix.cols[n-1].group == c.group {
			c.span = ix.cols[n-1].span
		} else if c.group != "" {
			c.span = groupSpan(ix.order, c.group)
		}
		if c.comp {
			comp = append(comp, c)
		} else if c.group != "" && c.op == types.OpEq {
			c.fill(ix.order)
		}
		ix.cols = append(ix.cols, c)
	}
	if len(comp) > 0 {
		ix.comp = newComposite(ix.order, comp)
	}
	return ix
}

// newComposite builds the composite list of the comp columns cols over the
// ranked rows: a first pass numbers each row's key tuple and counts the
// rows per tuple, a second places the rows.
func newComposite(order []*types.Tuple, cols []*column) *composite {
	x := &composite{seg: make(map[string]int32)}
	seg := make([]int32, len(order)) // per row, its key tuple's number or -1
	var count []int32
	var buf [64]byte
rows:
	for pos, row := range order {
		key := buf[:0]
		for _, c := range cols {
			k, ok := row.Atomic(c.path).EqKey()
			if !ok { // null: comp columns hold no other unkeyed value
				seg[pos] = -1
				continue rows
			}
			key = appendEqKey(key, k)
		}
		n, ok := x.seg[string(key)]
		if !ok {
			n = int32(len(count))
			x.seg[string(key)] = n
			count = append(count, 0)
		}
		seg[pos] = n
		count[n]++
	}
	x.start = make([]int32, len(count)+1)
	for n, c := range count {
		x.start[n+1] = x.start[n] + c
		count[n] = x.start[n] // from here on, the next free slot of tuple n
	}
	x.rows = make([]*types.Tuple, x.start[len(count)])
	x.at = make([]int32, len(x.rows))
	for pos, n := range seg {
		if n >= 0 {
			x.rows[count[n]], x.at[count[n]] = order[pos], int32(pos)
			count[n]++
		}
	}
	return x
}

// appendEqKey appends an unambiguous encoding of k: its class, then a
// length-prefixed string or the eight bytes of its bits.
func appendEqKey(b []byte, k types.EqKey) []byte {
	b = append(b, k.Class)
	if k.Class == types.ClassString {
		b = binary.AppendUvarint(b, uint64(len(k.Str)))
		return append(b, k.Str...)
	}
	return binary.LittleEndian.AppendUint64(b, k.Bits)
}

// lookup returns the composite list of the rows whose keys on the comp
// columns are the ones bs binds them to, clipped so that an append to it
// cannot reach the next list, and their positions in order. ok is false
// when the table has no comp column or some comp binding has no key (a
// NaN); the comp columns then filter by comparison.
func (ix *tableIndex) lookup(bs []bound) (rows []*types.Tuple, at []int32, ok bool) {
	if ix.comp == nil {
		return nil, nil, false
	}
	var buf [64]byte
	key := buf[:0]
	for i := range bs {
		if b := &bs[i]; b.comp {
			if !b.keyed {
				return nil, nil, false
			}
			key = appendEqKey(key, b.key)
		}
	}
	x := ix.comp
	n, found := x.seg[string(key)]
	if !found {
		return nil, nil, true
	}
	lo, hi := x.start[n], x.start[n+1]
	return x.rows[lo:hi:hi], x.at[lo:hi], true
}

// groupSpan numbers the sub-tuples of a repeating group across the rows.
func groupSpan(order []*types.Tuple, group string) []int32 {
	span := make([]int32, 1, len(order)+1)
	for _, row := range order {
		span = append(span, span[len(span)-1]+int32(len(row.Groups[group])))
	}
	return span
}

// newColumn cuts a path, resolves its operator and, for an atomic path,
// collects the kind witnesses and decides comp.
func (t *Table) newColumn(path string) *column {
	c := &column{path: path, op: types.OpEq}
	if op, ok := t.matchOps[path]; ok {
		c.op = op
	}
	if g, sub, dotted := strings.Cut(path, "."); dotted {
		c.group, c.sub = g, sub
		return c
	}
	c.comp = c.op == types.OpEq
	// Load order, so the witness is the row a scan would trip on first.
next:
	for _, row := range t.rows {
		v := row.Atomic(path)
		if v.IsNull() {
			continue
		}
		if c.comp {
			_, c.comp = v.EqKey()
		}
		for _, w := range c.kinds {
			if w.Kind() == v.Kind() {
				continue next
			}
		}
		c.kinds = append(c.kinds, v)
	}
	return c
}

// fill builds the posting lists and per-sub-tuple keys of a group
// equality column. A value without an equality key (a NaN equals every
// number) leaves the column unkeyed: it is then matched by comparison like
// a range column.
func (c *column) fill(order []*types.Tuple) {
	post := make(map[types.EqKey][]int32)
	var keys []types.EqKey
	for pos, row := range order {
		for _, st := range row.Groups[c.group] {
			v := st[c.sub]
			k, ok := v.EqKey()
			if !ok {
				if !v.IsNull() {
					return
				}
				keys = append(keys, types.EqKey{})
				continue
			}
			keys = append(keys, k)
			if l := post[k]; len(l) == 0 || l[len(l)-1] != int32(pos) {
				post[k] = append(l, int32(pos))
			}
		}
	}
	c.post, c.keys = post, keys
}

// bound is one column with the value an invocation binds it to.
type bound struct {
	*column
	v types.Value
	// keyed reports that v has an equality key on a comp column or on a
	// group column with posting lists, which then compare keys; otherwise
	// the operator is evaluated on the values.
	keyed bool
	key   types.EqKey
	// run is, on the first column of a repeating group, the number of
	// adjacent bound columns on that group; 1 on an atomic column.
	run int
}

// bind pairs every compiled column with its bound value, rejecting
// missing bindings (access limitations are mandatory) and bindings an
// atomic column's values cannot be compared with. Columns and bindings
// are both sorted by path, so one merge walk pairs them.
func (ix *tableIndex) bind(in Input, bs []bound) ([]bound, error) {
	j := 0
	for _, c := range ix.cols {
		for j < len(in) && in[j].Path < c.path {
			j++
		}
		if j == len(in) || in[j].Path != c.path || in[j].Value.IsNull() {
			return nil, unboundError(ix.t.si, c.path)
		}
		b := bound{column: c, v: in[j].Value}
		j++
		if c.comp || c.post != nil {
			b.key, b.keyed = b.v.EqKey()
		}
		bs = append(bs, b)
	}
	if len(in) > len(ix.cols) {
		bs = ix.bindExtras(in, bs)
	}
	for i := 0; i < len(bs); i += bs[i].run {
		b := &bs[i]
		for _, w := range b.kinds {
			if _, err := b.op.Eval(w, b.v); err != nil {
				return nil, fmt.Errorf("service %s: matching %q: %w", ix.t.si.Name, b.path, err)
			}
		}
		b.run = 1
		for b.group != "" && i+b.run < len(bs) && bs[i+b.run].group == b.group {
			b.run++
		}
	}
	return bs, nil
}

// bindExtras adds the bindings of in beyond the interface's inputs: they
// filter too, by comparison, on columns made up for the invocation. One on
// an input path's repeating group joins that group's single-sub-tuple
// test. The result is a fresh slice in path order, merged from the bound
// columns and the extra bindings, both sorted by path.
func (ix *tableIndex) bindExtras(in Input, bs []bound) []bound {
	out := make([]bound, 0, len(in))
	i := 0
	for _, e := range in {
		for i < len(bs) && bs[i].path < e.Path {
			out = append(out, bs[i])
			i++
		}
		if i < len(bs) && bs[i].path == e.Path {
			continue // an input path, bound already
		}
		c := ix.t.newColumn(e.Path)
		c.comp = false // filed under no key: an extra binding filters
		for _, ic := range ix.cols {
			if ic.group == c.group {
				c.span = ic.span // nil between atomic paths
			}
		}
		out = append(out, bound{column: c, v: e.Value})
	}
	return append(out, bs[i:]...)
}

// Invoke implements Service. When every comp column is bound to a keyed
// value, the candidates are the composite list those keys select; when
// nothing else is bound, that list is the answer, served as it is.
// Otherwise the candidates are the shortest posting list a group binding
// selects (every row when none does), in rank order. The remaining
// bindings filter them. The invocation serves the matches in chunks of
// Stats().ChunkSize.
func (t *Table) Invoke(ctx context.Context, in Input) (Invocation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ix := t.index()
	var buf [8]bound
	bs, err := ix.bind(in, buf[:0])
	if err != nil {
		return nil, err
	}
	inv := &tableInvocation{table: t}
	// The candidates are every row, or the ascending positions cand lists.
	all, drive := true, -1
	var cand []int32
	if rows, at, ok := ix.lookup(bs); ok {
		rest := bs[:0]
		for _, b := range bs {
			if !b.comp {
				rest = append(rest, b)
			}
		}
		if len(rest) == 0 {
			inv.matches = rows
			return inv, nil
		}
		all, cand, bs = false, at, rest
	} else {
		for i := range bs {
			if b := &bs[i]; b.keyed && b.post != nil {
				if l := b.post[b.key]; all || len(l) < len(cand) {
					all, drive, cand = false, i, l
				}
			}
		}
	}
	// Filter into a stack buffer, which append moves to the heap only past
	// 64 matches, then copy the matches out at their size.
	var stack [64]*types.Tuple
	m := stack[:0]
	if all {
		for pos, row := range ix.order {
			if ix.matches(pos, bs, -1) {
				m = append(m, row)
			}
		}
	} else {
		for _, pos := range cand {
			if ix.matches(int(pos), bs, drive) {
				m = append(m, ix.order[pos])
			}
		}
	}
	if len(m) > 0 {
		inv.matches = append(make([]*types.Tuple, 0, len(m)), m...)
	}
	return inv, nil
}

// matches evaluates the bound columns against the row at pos. Atomic
// paths must satisfy their operator directly. Input paths on the same
// repeating group must be satisfied together by a single sub-tuple,
// realizing the existential single-mapping semantics of Section 3.1. The
// column whose posting list produced pos is settled already, unless it is
// one of several on its group.
func (ix *tableIndex) matches(pos int, bs []bound, drive int) bool {
	row := ix.order[pos]
	for i := 0; i < len(bs); i += bs[i].run {
		b := &bs[i]
		switch {
		case i == drive && b.run == 1:
		case b.group != "":
			if !groupMatches(row, pos, bs[i:i+b.run]) {
				return false
			}
		default:
			// bind has established that the operator applies to every
			// value of the column, so err is nil.
			if ok, _ := b.op.Eval(row.Atomic(b.path), b.v); !ok {
				return false
			}
		}
	}
	return true
}

// groupMatches reports whether one sub-tuple of the row at pos satisfies
// every bound column of the group; a sub-value that cannot be compared
// with its binding does not satisfy it.
func groupMatches(row *types.Tuple, pos int, run []bound) bool {
	var subs []types.SubTuple // the row's map-backed sub-tuples, if an unkeyed column needs them
	lo, n := 0, 0
	if span := run[0].span; span != nil {
		lo, n = int(span[pos]), int(span[pos+1]-span[pos])
	} else {
		subs = row.Groups[run[0].group]
		n = len(subs)
	}
next:
	for s := 0; s < n; s++ {
		for i := range run {
			b := &run[i]
			if b.keyed {
				if b.keys[lo+s] != b.key {
					continue next
				}
				continue
			}
			if subs == nil {
				subs = row.Groups[b.group]
			}
			if ok, err := b.op.Eval(subs[s][b.sub], b.v); err != nil || !ok {
				continue next
			}
		}
		return true
	}
	return false
}

type tableInvocation struct {
	table   *Table
	matches []*types.Tuple
	next    int // index of the next chunk
}

// Fetch implements Invocation.
func (inv *tableInvocation) Fetch(ctx context.Context) (Chunk, error) {
	if err := ctx.Err(); err != nil {
		return Chunk{}, err
	}
	size := inv.table.stats.ChunkSize
	if size <= 0 {
		size = len(inv.matches)
		if size == 0 && inv.next == 0 {
			inv.next = 1
			return Chunk{Index: 0}, nil
		}
	}
	lo := inv.next * size
	if lo >= len(inv.matches) && !(inv.next == 0 && inv.table.stats.ChunkSize <= 0) {
		return Chunk{}, ErrExhausted
	}
	hi := lo + size
	if hi > len(inv.matches) {
		hi = len(inv.matches)
	}
	c := Chunk{Index: inv.next, Tuples: inv.matches[lo:hi:hi]}
	inv.next++
	return c, nil
}
