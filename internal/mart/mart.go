// Package mart models the design-time registry of Search Computing:
// service marts, their attributes (atomic and repeating groups), service
// interfaces with access-pattern adornments, and connection patterns that
// predefine join conditions between marts (Chapter 9 of the book, used
// throughout the optimization chapter).
//
// A service mart is the conceptual description of an information source.
// A service interface is one concrete way to call it, characterized by an
// adornment that classifies each (sub-)attribute as Input, Output or
// Ranked. Connection patterns name reusable join conditions between two
// marts, so queries can write Shows(M,T) instead of spelling out the
// attribute equalities.
package mart

import (
	"fmt"
	"sort"
	"strings"

	"seco/internal/types"
)

// Adornment classifies the role of a (sub-)attribute in a service
// interface's access pattern, following the I/O/R notation of Section 5.6.
type Adornment int

const (
	// Output marks an attribute produced by the service.
	Output Adornment = iota
	// Input marks an attribute that must be bound to invoke the service.
	Input
	// Ranked marks an output attribute that carries the ranking measure of
	// a search service.
	Ranked
)

// String returns the single-letter adornment used in the chapter (I, O, R).
func (a Adornment) String() string {
	switch a {
	case Input:
		return "I"
	case Output:
		return "O"
	case Ranked:
		return "R"
	default:
		return "?"
	}
}

// Attribute describes one attribute of a service mart. If Sub is non-empty
// the attribute is a repeating group whose members are the sub-attributes;
// otherwise it is atomic.
type Attribute struct {
	// Name is the attribute name, unique within the mart.
	Name string
	// Kind is the value type of an atomic attribute; ignored for
	// repeating groups.
	Kind types.Kind
	// Sub lists the sub-attributes when the attribute is a repeating group.
	Sub []Attribute
}

// IsGroup reports whether the attribute is a repeating group.
func (a Attribute) IsGroup() bool { return len(a.Sub) > 0 }

// Mart is a service mart: a named, flat schema of attributes and repeating
// groups describing one class of information objects.
type Mart struct {
	// Name is the mart name (e.g. "Movie").
	Name string
	// Attributes is the mart schema in declaration order.
	Attributes []Attribute
}

// Attribute returns the attribute with the given name, or false.
func (m *Mart) Attribute(name string) (Attribute, bool) {
	for _, a := range m.Attributes {
		if a.Name == name {
			return a, true
		}
	}
	return Attribute{}, false
}

// HasPath reports whether path ("Attr" or "Group.Sub") names an attribute
// or sub-attribute of the mart.
func (m *Mart) HasPath(path string) bool {
	group, sub, dotted := strings.Cut(path, ".")
	a, ok := m.Attribute(group)
	if !ok {
		return false
	}
	if !dotted {
		return !a.IsGroup()
	}
	if !a.IsGroup() {
		return false
	}
	for _, s := range a.Sub {
		if s.Name == sub {
			return true
		}
	}
	return false
}

// PathKind returns the value kind of an attribute path, or an error if the
// path does not name an atomic (sub-)attribute of the mart.
func (m *Mart) PathKind(path string) (types.Kind, error) {
	group, sub, dotted := strings.Cut(path, ".")
	a, ok := m.Attribute(group)
	if !ok {
		return types.KindNull, fmt.Errorf("mart %s: no attribute %q", m.Name, group)
	}
	if !dotted {
		if a.IsGroup() {
			return types.KindNull, fmt.Errorf("mart %s: %q is a repeating group, not atomic", m.Name, group)
		}
		return a.Kind, nil
	}
	if !a.IsGroup() {
		return types.KindNull, fmt.Errorf("mart %s: %q is atomic, has no sub-attribute %q", m.Name, group, sub)
	}
	for _, s := range a.Sub {
		if s.Name == sub {
			return s.Kind, nil
		}
	}
	return types.KindNull, fmt.Errorf("mart %s: group %q has no sub-attribute %q", m.Name, group, sub)
}

// Paths returns every atomic attribute path of the mart ("Attr" and
// "Group.Sub"), in declaration order.
func (m *Mart) Paths() []string {
	var ps []string
	for _, a := range m.Attributes {
		if a.IsGroup() {
			for _, s := range a.Sub {
				ps = append(ps, a.Name+"."+s.Name)
			}
		} else {
			ps = append(ps, a.Name)
		}
	}
	return ps
}

// Interface is a service interface: a concrete access pattern over a mart.
// Every atomic path of the mart is adorned Input, Output or Ranked.
type Interface struct {
	// Name identifies the interface (e.g. "Movie1").
	Name string
	// Mart is the mart this interface implements.
	Mart *Mart
	// Adornments maps each atomic attribute path to its role.
	Adornments map[string]Adornment
	// inputs are the Input-adorned paths in sorted order, resolved once by
	// NewInterface.
	inputs []string
}

// NewInterface builds an interface over m, defaulting every path to Output
// and applying the given overrides. It returns an error if an override
// names an unknown path.
func NewInterface(name string, m *Mart, overrides map[string]Adornment) (*Interface, error) {
	ad := make(map[string]Adornment, len(m.Paths()))
	for _, p := range m.Paths() {
		ad[p] = Output
	}
	for p, a := range overrides {
		if _, ok := ad[p]; !ok {
			return nil, fmt.Errorf("interface %s: adornment for unknown path %q", name, p)
		}
		ad[p] = a
	}
	si := &Interface{Name: name, Mart: m, Adornments: ad}
	si.inputs = si.pathsWith(Input)
	return si, nil
}

// InputPaths returns the interface's input attribute paths in sorted
// order. The slice is resolved once, when the interface is built, and
// shared by every caller: it is read-only.
func (si *Interface) InputPaths() []string { return si.inputs }

// OutputPaths returns the output and ranked paths in sorted order.
func (si *Interface) OutputPaths() []string {
	out := si.pathsWith(Output)
	out = append(out, si.pathsWith(Ranked)...)
	sort.Strings(out)
	return out
}

// RankedPaths returns the ranked paths in sorted order. A non-empty result
// marks the interface as a search service.
func (si *Interface) RankedPaths() []string {
	return si.pathsWith(Ranked)
}

// IsSearch reports whether the interface exposes a ranking measure, i.e.
// whether it is a search service in the chapter's classification.
func (si *Interface) IsSearch() bool { return len(si.RankedPaths()) > 0 }

func (si *Interface) pathsWith(a Adornment) []string {
	var ps []string
	for p, ad := range si.Adornments {
		if ad == a {
			ps = append(ps, p)
		}
	}
	sort.Strings(ps)
	return ps
}

// String renders the interface in the chapter's adornment notation:
// Name(path^A, ...).
func (si *Interface) String() string {
	var b strings.Builder
	b.WriteString(si.Name)
	b.WriteByte('(')
	for i, p := range si.Mart.Paths() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s^%s", p, si.Adornments[p])
	}
	b.WriteByte(')')
	return b.String()
}

// Join is one attribute equality of a connection pattern: the path on the
// source mart equated with the path on the target mart.
type Join struct {
	// From is the attribute path on the pattern's source mart.
	From string
	// To is the attribute path on the pattern's target mart.
	To string
}

// ConnectionPattern is a named, directed join condition between two marts,
// e.g. Shows(Movie, Theatre) ≡ Movie.Title = Theatre.Movie.Title.
type ConnectionPattern struct {
	// Name is the pattern name used in queries (e.g. "Shows").
	Name string
	// From and To are the two marts the pattern connects.
	From, To *Mart
	// Joins is the conjunction of attribute equalities.
	Joins []Join
	// Selectivity estimates the fraction of candidate pairs that satisfy
	// the pattern, used by the annotation engine (e.g. Shows = 0.02).
	Selectivity float64
}

// Validate checks that every join path exists on the respective mart.
func (cp *ConnectionPattern) Validate() error {
	if len(cp.Joins) == 0 {
		return fmt.Errorf("pattern %s: no join conditions", cp.Name)
	}
	if cp.Selectivity <= 0 || cp.Selectivity > 1 {
		return fmt.Errorf("pattern %s: selectivity %v out of (0,1]", cp.Name, cp.Selectivity)
	}
	for _, j := range cp.Joins {
		if !cp.From.HasPath(j.From) {
			return fmt.Errorf("pattern %s: mart %s has no path %q", cp.Name, cp.From.Name, j.From)
		}
		if !cp.To.HasPath(j.To) {
			return fmt.Errorf("pattern %s: mart %s has no path %q", cp.Name, cp.To.Name, j.To)
		}
	}
	return nil
}
