package types

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Tuple is a single result object produced by a service call. Atomic
// attributes map to a Value; repeating groups map to a slice of sub-tuples
// (each sub-tuple being a flat attribute→Value map). A Tuple also carries
// the score assigned by the producing service's scoring function, in [0,1].
type Tuple struct {
	// Attrs holds the atomic attribute values.
	Attrs map[string]Value
	// Groups holds repeating-group values: group name → set of sub-tuples.
	Groups map[string][]SubTuple
	// Score is the service-assigned relevance score in [0,1]; exact
	// (unranked) services assign a fixed constant.
	Score float64
}

// SubTuple is one member of a repeating group: sub-attribute name → value.
type SubTuple map[string]Value

// NewTuple returns an empty tuple with the given score.
func NewTuple(score float64) *Tuple {
	return &Tuple{
		Attrs:  make(map[string]Value),
		Groups: make(map[string][]SubTuple),
		Score:  score,
	}
}

// Get resolves a possibly dotted attribute path against the tuple.
// "A" resolves an atomic attribute. For a repeating-group path "R.A" Get
// returns the value of sub-attribute A in the first sub-tuple, which is
// only appropriate for display; predicate evaluation must use GroupValues
// to honour the existential single-sub-tuple semantics of Section 3.1.
// Hot paths that evaluate the same path repeatedly should cut it once and
// use Atomic/GroupFirst instead.
func (t *Tuple) Get(path string) Value {
	if group, sub, ok := strings.Cut(path, "."); ok {
		return t.GroupFirst(group, sub)
	}
	return t.Atomic(path)
}

// Atomic resolves an atomic attribute (Null when absent) without the
// dotted-path scan of Get.
func (t *Tuple) Atomic(name string) Value {
	if v, ok := t.Attrs[name]; ok {
		return v
	}
	return Null
}

// GroupFirst returns sub-attribute sub of the first sub-tuple of the
// repeating group (Null when the group is empty) — the pre-cut form of
// Get on a dotted path.
func (t *Tuple) GroupFirst(group, sub string) Value {
	subs := t.Groups[group]
	if len(subs) == 0 {
		return Null
	}
	return subs[0][sub]
}

// GroupValues returns all values of sub-attribute sub within repeating
// group group, one per sub-tuple, preserving order.
func (t *Tuple) GroupValues(group, sub string) []Value {
	subs := t.Groups[group]
	vals := make([]Value, 0, len(subs))
	for _, st := range subs {
		vals = append(vals, st[sub])
	}
	return vals
}

// Set assigns an atomic attribute.
func (t *Tuple) Set(attr string, v Value) *Tuple {
	t.Attrs[attr] = v
	return t
}

// AddGroup appends a sub-tuple to a repeating group.
func (t *Tuple) AddGroup(group string, st SubTuple) *Tuple {
	t.Groups[group] = append(t.Groups[group], st)
	return t
}

// String renders the tuple with attributes in sorted order, for stable
// test output.
func (t *Tuple) String() string { return string(t.AppendTo(nil)) }

// maxStackKeys is how many attribute names AppendTo sorts without
// allocating; a wider tuple or sub-tuple sorts in a heap slice.
const maxStackKeys = 16

// AppendTo appends the String rendering to dst and returns the extended
// buffer. Rendering is on the serving path (every /query response prints
// its combinations), so names are sorted in a stack array and values
// appended directly rather than through fmt's reflection.
func (t *Tuple) AppendTo(dst []byte) []byte {
	if t == nil {
		return append(dst, "<nil>"...) // as fmt renders a nil Stringer
	}
	dst = append(dst, '{')
	var keyBuf [maxStackKeys]string
	keys := keyBuf[:0]
	for k := range t.Attrs {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = append(dst, k...)
		dst = append(dst, ':')
		dst = t.Attrs[k].AppendTo(dst)
	}
	sep := len(keys) > 0
	var groupBuf [maxStackKeys]string
	groups := groupBuf[:0]
	for g := range t.Groups {
		groups = append(groups, g)
	}
	slices.Sort(groups)
	for _, g := range groups {
		if sep {
			dst = append(dst, ", "...)
		}
		sep = true
		dst = append(dst, g...)
		dst = append(dst, ":["...)
		for i, st := range t.Groups[g] {
			if i > 0 {
				dst = append(dst, ' ')
			}
			dst = st.appendTo(dst)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// appendTo appends the sub-tuple as <name=value,...>, names sorted.
func (st SubTuple) appendTo(dst []byte) []byte {
	var keyBuf [maxStackKeys]string
	keys := keyBuf[:0]
	for k := range st {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst = append(dst, '<')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, k...)
		dst = append(dst, '=')
		dst = st[k].AppendTo(dst)
	}
	return append(dst, '>')
}

// Combination is a composite tuple t1·…·tn formed by joining component
// tuples from the query's services (Section 3.1). Components are keyed by
// the alias the query gave each service occurrence.
type Combination struct {
	// Components maps query alias → component tuple.
	Components map[string]*Tuple
	// Score is the value of the query's ranking function
	// f = w1·S1 + … + wn·Sn on this combination.
	Score float64
	// sorted caches the sorted alias list when the combination was built
	// through NewCombinationPre; Aliases falls back to sorting fresh
	// whenever the cache no longer matches Components.
	sorted []string
}

// NewCombination returns a combination holding a single component.
func NewCombination(alias string, t *Tuple) *Combination {
	return &Combination{Components: map[string]*Tuple{alias: t}}
}

// NewCombinationPre builds a combination whose sorted alias list is
// already known — the engine's result-materialization boundary resolves
// aliases from its compile-time layout, so Aliases and String never
// re-sort. aliases must be the keys of components in sorted order; the
// slice is retained.
func NewCombinationPre(components map[string]*Tuple, aliases []string, score float64) *Combination {
	return &Combination{Components: components, Score: score, sorted: aliases}
}

// Merge returns a new combination holding the union of components of c and
// d. Aliases must be disjoint; Merge panics otherwise, because joins in a
// well-formed plan never combine the same service occurrence twice.
func (c *Combination) Merge(d *Combination) *Combination {
	m := &Combination{Components: make(map[string]*Tuple, len(c.Components)+len(d.Components))}
	for a, t := range c.Components {
		m.Components[a] = t
	}
	for a, t := range d.Components {
		if _, dup := m.Components[a]; dup {
			panic(fmt.Sprintf("types: duplicate alias %q in combination merge", a))
		}
		m.Components[a] = t
	}
	return m
}

// Get resolves a qualified path "Alias.Attr" or "Alias.Group.Sub" against
// the combination.
func (c *Combination) Get(alias, path string) Value {
	t, ok := c.Components[alias]
	if !ok {
		return Null
	}
	return t.Get(path)
}

// Rank computes the weighted score w·S summed over components, writing it
// to c.Score and returning it. Aliases without a weight contribute 0, which
// realizes the chapter's rule that unranked services get weight 0.
func (c *Combination) Rank(weights map[string]float64) float64 {
	s := 0.0
	for alias, t := range c.Components {
		s += weights[alias] * t.Score
	}
	c.Score = s
	return s
}

// Aliases returns the component aliases in sorted order. Combinations
// built by the engine carry the list precomputed; callers must treat the
// returned slice as read-only.
func (c *Combination) Aliases() []string {
	if len(c.sorted) == len(c.Components) {
		return c.sorted
	}
	as := make([]string, 0, len(c.Components))
	for a := range c.Components {
		as = append(as, a)
	}
	sort.Strings(as)
	return as
}

// String renders the combination alias by alias in sorted order.
func (c *Combination) String() string { return string(c.AppendTo(nil)) }

// AppendTo appends the String rendering to dst and returns the extended
// buffer.
func (c *Combination) AppendTo(dst []byte) []byte {
	dst = append(dst, "[score="...)
	dst = strconv.AppendFloat(dst, c.Score, 'f', 4, 64)
	for _, a := range c.Aliases() {
		dst = append(dst, ' ')
		dst = append(dst, a...)
		dst = append(dst, '=')
		dst = c.Components[a].AppendTo(dst)
	}
	return append(dst, ']')
}
