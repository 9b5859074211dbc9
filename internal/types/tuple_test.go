package types

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"time"
)

func sampleTuple() *Tuple {
	t := NewTuple(0.8)
	t.Set("Title", String("Casablanca")).Set("Year", Int(1942))
	t.AddGroup("Genres", SubTuple{"Genre": String("Drama")})
	t.AddGroup("Genres", SubTuple{"Genre": String("Romance")})
	return t
}

func TestTupleGet(t *testing.T) {
	tup := sampleTuple()
	if got := tup.Get("Title"); !got.Equal(String("Casablanca")) {
		t.Errorf("Get(Title) = %v", got)
	}
	if got := tup.Get("Genres.Genre"); !got.Equal(String("Drama")) {
		t.Errorf("Get(Genres.Genre) = %v", got)
	}
	if got := tup.Get("Missing"); !got.IsNull() {
		t.Errorf("Get(Missing) = %v, want null", got)
	}
	if got := tup.Get("Nope.Sub"); !got.IsNull() {
		t.Errorf("Get(Nope.Sub) = %v, want null", got)
	}
}

func TestGroupValues(t *testing.T) {
	tup := sampleTuple()
	vals := tup.GroupValues("Genres", "Genre")
	if len(vals) != 2 || !vals[0].Equal(String("Drama")) || !vals[1].Equal(String("Romance")) {
		t.Errorf("GroupValues = %v", vals)
	}
	if got := tup.GroupValues("None", "X"); len(got) != 0 {
		t.Errorf("GroupValues on missing group = %v", got)
	}
}

func TestTupleStringStable(t *testing.T) {
	s1, s2 := sampleTuple().String(), sampleTuple().String()
	if s1 != s2 {
		t.Errorf("String not deterministic: %q vs %q", s1, s2)
	}
	for _, frag := range []string{"Title", "Casablanca", "Genres", "Drama"} {
		if !strings.Contains(s1, frag) {
			t.Errorf("String %q missing %q", s1, frag)
		}
	}
}

func TestCombinationMergeAndGet(t *testing.T) {
	m := NewCombination("M", sampleTuple())
	th := NewTuple(0.5)
	th.Set("Name", String("Odeon"))
	c := m.Merge(NewCombination("T", th))
	if got := c.Get("M", "Title"); !got.Equal(String("Casablanca")) {
		t.Errorf("Get(M.Title) = %v", got)
	}
	if got := c.Get("T", "Name"); !got.Equal(String("Odeon")) {
		t.Errorf("Get(T.Name) = %v", got)
	}
	if got := c.Get("X", "Name"); !got.IsNull() {
		t.Errorf("Get on missing alias = %v", got)
	}
	if as := c.Aliases(); len(as) != 2 || as[0] != "M" || as[1] != "T" {
		t.Errorf("Aliases = %v", as)
	}
}

func TestCombinationMergeDisjointPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Merge with duplicate alias did not panic")
		}
	}()
	a := NewCombination("M", sampleTuple())
	a.Merge(NewCombination("M", sampleTuple()))
}

func TestCombinationRank(t *testing.T) {
	m := NewCombination("M", sampleTuple()) // score 0.8
	th := NewTuple(0.5)
	c := m.Merge(NewCombination("T", th))
	got := c.Rank(map[string]float64{"M": 0.3, "T": 0.5})
	want := 0.3*0.8 + 0.5*0.5
	if diff := got - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("Rank = %v, want %v", got, want)
	}
	if c.Score != got {
		t.Error("Rank did not store score")
	}
	// Unweighted alias contributes 0 (unranked services get weight 0).
	if got := c.Rank(map[string]float64{"M": 1}); got != 0.8 {
		t.Errorf("Rank with missing weight = %v, want 0.8", got)
	}
}

func TestCombinationString(t *testing.T) {
	c := NewCombination("M", sampleTuple())
	c.Rank(map[string]float64{"M": 1})
	s := c.String()
	if !strings.Contains(s, "score=0.8000") || !strings.Contains(s, "M=") {
		t.Errorf("String = %q", s)
	}
}

// fmtTuple and fmtCombination are the fmt-based renderings String used to
// be; the goldens and every /query response were produced by them.
func fmtTuple(t *Tuple) string {
	if t == nil {
		return "<nil>"
	}
	var b strings.Builder
	b.WriteByte('{')
	keys := make([]string, 0, len(t.Attrs))
	for k := range t.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s:%s", k, t.Attrs[k])
	}
	groups := make([]string, 0, len(t.Groups))
	for g := range t.Groups {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	for _, g := range groups {
		if b.Len() > 1 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s:[", g)
		for i, st := range t.Groups[g] {
			if i > 0 {
				b.WriteString(" ")
			}
			subKeys := make([]string, 0, len(st))
			for k := range st {
				subKeys = append(subKeys, k)
			}
			sort.Strings(subKeys)
			b.WriteByte('<')
			for j, k := range subKeys {
				if j > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "%s=%s", k, st[k])
			}
			b.WriteByte('>')
		}
		b.WriteByte(']')
	}
	b.WriteByte('}')
	return b.String()
}

func fmtCombination(c *Combination) string {
	var b strings.Builder
	fmt.Fprintf(&b, "[score=%.4f", c.Score)
	for _, a := range c.Aliases() {
		fmt.Fprintf(&b, " %s=%s", a, fmtTuple(c.Components[a]))
	}
	b.WriteByte(']')
	return b.String()
}

// TestStringRendersAsFmtDid: writing names and values to the builder
// directly is byte-identical to formatting them through fmt, for every
// value kind, empty and group-only tuples, and awkward scores.
func TestStringRendersAsFmtDid(t *testing.T) {
	all := NewTuple(0.25)
	all.Set("S", String("a \"quoted\"\tstring, long enough to outgrow the scratch buffer")).
		Set("I", Int(-42)).Set("F", Float(1e21)).Set("G", Float(0.1)).Set("B", Bool(true)).
		Set("D", Date(time.Date(2009, 7, 1, 12, 0, 0, 0, time.UTC))).Set("N", Null)
	all.AddGroup("R", SubTuple{"X": Int(1), "Y": String("y")})
	all.AddGroup("R", SubTuple{})
	all.AddGroup("Q", SubTuple{"Z": Float(math.Inf(-1))})
	groupOnly := NewTuple(0)
	groupOnly.AddGroup("R", SubTuple{"X": Null})
	groupOnly.Groups["Empty"] = nil
	tuples := []*Tuple{all, groupOnly, NewTuple(1), sampleTuple()}
	for _, tu := range tuples {
		if got, want := tu.String(), fmtTuple(tu); got != want {
			t.Errorf("Tuple.String() = %s\nwant             %s", got, want)
		}
	}
	for _, score := range []float64{0, 0.8, 0.99995, -1.5, 1e9, math.Inf(1), math.NaN()} {
		c := &Combination{Components: map[string]*Tuple{"M": all, "T": groupOnly, "Z": nil}, Score: score}
		if got, want := c.String(), fmtCombination(c); got != want {
			t.Errorf("Combination.String() = %s\nwant                   %s", got, want)
		}
	}
}
