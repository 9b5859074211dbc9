// Package query implements the conjunctive query language of Section 3.1:
// select-join queries over service interfaces with selection predicates,
// join predicates, connection-pattern shorthands, INPUT variables and a
// ranking function, plus the reachability/feasibility analysis that
// underlies access-pattern checking.
//
// The concrete syntax follows the chapter's running example:
//
//	RunningExample:
//	select Movie1 as M, Theatre1 as T, Restaurant1 as R
//	where Shows(M,T) and DinnerPlace(T,R) and
//	      M.Genres.Genre = INPUT1 and M.Openings.Country = INPUT2 and
//	      M.Openings.Date > INPUT3 and T.UAddress = INPUT4 and
//	      T.UCity = INPUT5 and T.TCountry = INPUT2 and
//	      T.Categories.Name = INPUT6 and
//	      M.Title = T.Movies.Title
//	rank 0.3 M, 0.5 T, 0.2 R
package query

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"seco/internal/mart"
	"seco/internal/types"
)

// ServiceRef is one service occurrence in the select clause: an interface
// name with the alias the query binds it to. The same interface can occur
// several times under different aliases.
type ServiceRef struct {
	// Alias is the query-local name (defaults to the interface name).
	Alias string
	// InterfaceName is the service interface referenced.
	InterfaceName string
	// Interface is resolved by Analyze.
	Interface *mart.Interface
}

// PathRef is a qualified attribute path "Alias.Attr" or "Alias.Group.Sub".
type PathRef struct {
	Alias string
	Path  string
}

// String renders the qualified path.
func (p PathRef) String() string { return p.Alias + "." + p.Path }

// TermKind discriminates the right-hand side of a predicate.
type TermKind int

const (
	// TermConst is a literal constant.
	TermConst TermKind = iota
	// TermInput is an INPUT variable bound at execution time.
	TermInput
	// TermPath is an attribute path of another service (join predicate).
	TermPath
)

// Term is the right-hand side of a predicate.
type Term struct {
	Kind  TermKind
	Const types.Value // TermConst
	Input string      // TermInput: the variable name, e.g. "INPUT2"
	Path  PathRef     // TermPath
}

// String renders the term in query syntax.
func (t Term) String() string {
	switch t.Kind {
	case TermConst:
		return constString(t.Const)
	case TermInput:
		return t.Input
	default:
		return t.Path.String()
	}
}

// constString renders a constant as Parse reads it back: the lexer has
// no escapes and no exponents, so a string goes raw between a quote
// character it does not contain and a float without an exponent.
func constString(v types.Value) string {
	switch v.Kind() {
	case types.KindString:
		quote := `"`
		if strings.Contains(v.Str(), quote) {
			quote = "'"
		}
		return quote + v.Str() + quote
	case types.KindFloat:
		return strconv.FormatFloat(v.FloatVal(), 'f', -1, 64)
	}
	return v.String()
}

// Predicate is one conjunct of the where clause: Left Op Term. It is a
// selection predicate when the term is a constant or INPUT variable, and a
// join predicate when the term is a path.
type Predicate struct {
	Left  PathRef
	Op    types.Op
	Right Term
}

// IsJoin reports whether the predicate relates two services.
func (p Predicate) IsJoin() bool { return p.Right.Kind == TermPath }

// String renders the predicate in query syntax.
func (p Predicate) String() string {
	return fmt.Sprintf("%s %s %s", p.Left, p.Op, p.Right)
}

// PatternUse is a connection-pattern shorthand Shows(M,T) in the where
// clause; Analyze resolves and expands it into join predicates.
type PatternUse struct {
	Name               string
	FromAlias, ToAlias string
	// Pattern is resolved by Analyze.
	Pattern *mart.ConnectionPattern
}

// String renders the shorthand.
func (u PatternUse) String() string {
	return fmt.Sprintf("%s(%s,%s)", u.Name, u.FromAlias, u.ToAlias)
}

// Query is a parsed (and possibly analyzed) conjunctive query.
type Query struct {
	// Name is the optional query label.
	Name string
	// Services are the select-clause occurrences, in order.
	Services []ServiceRef
	// Patterns are the connection-pattern uses of the where clause.
	Patterns []PatternUse
	// Predicates are the explicit predicates of the where clause.
	Predicates []Predicate
	// Weights is the ranking function: alias → non-negative weight
	// (Section 3.1); unranked services weigh 0.
	Weights map[string]float64

	analyzed bool
	// joins is JoinPredicates' result, derived once when Analyze (or
	// Augment) fixes Predicates and Patterns; read-only from then on, so
	// a query may be planned from several goroutines.
	joins []Predicate
}

// Service returns the service occurrence with the given alias.
func (q *Query) Service(alias string) (*ServiceRef, bool) {
	for i := range q.Services {
		if q.Services[i].Alias == alias {
			return &q.Services[i], true
		}
	}
	return nil, false
}

// Aliases returns the service aliases in select order.
func (q *Query) Aliases() []string {
	as := make([]string, len(q.Services))
	for i, s := range q.Services {
		as[i] = s.Alias
	}
	return as
}

// InputVariables returns the INPUT variable names used by the query, in
// sorted order.
func (q *Query) InputVariables() []string {
	set := map[string]bool{}
	for _, p := range q.Predicates {
		if p.Right.Kind == TermInput {
			set[p.Right.Input] = true
		}
	}
	vars := make([]string, 0, len(set))
	for v := range set {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	return vars
}

// SelectionsFor returns the selection predicates over the given alias.
func (q *Query) SelectionsFor(alias string) []Predicate {
	var ps []Predicate
	for _, p := range q.Predicates {
		if !p.IsJoin() && p.Left.Alias == alias {
			ps = append(ps, p)
		}
	}
	return ps
}

// JoinPredicates returns every join predicate of the query: the explicit
// path-to-path predicates plus the expansion of every connection-pattern
// use. The query must have been analyzed; the slice is shared and must
// not be modified.
func (q *Query) JoinPredicates() []Predicate {
	if q.analyzed {
		return q.joins
	}
	return q.deriveJoins()
}

func (q *Query) deriveJoins() []Predicate {
	var ps []Predicate
	for _, p := range q.Predicates {
		if p.IsJoin() {
			ps = append(ps, p)
		}
	}
	for _, u := range q.Patterns {
		if u.Pattern == nil {
			continue
		}
		for _, j := range u.Pattern.Joins {
			ps = append(ps, Predicate{
				Left: PathRef{Alias: u.FromAlias, Path: j.From},
				Op:   types.OpEq,
				Right: Term{Kind: TermPath,
					Path: PathRef{Alias: u.ToAlias, Path: j.To}},
			})
		}
	}
	return ps[:len(ps):len(ps)] // shared: an append by a caller must copy
}

// String renders the query in canonical concrete syntax (lower-case
// keywords, one space separation), suitable for round-trip tests.
func (q *Query) String() string {
	var b strings.Builder
	if q.Name != "" {
		b.WriteString(q.Name)
		b.WriteString(": ")
	}
	b.WriteString("select ")
	for i, s := range q.Services {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(s.InterfaceName)
		if s.Alias != s.InterfaceName {
			b.WriteString(" as ")
			b.WriteString(s.Alias)
		}
	}
	conds := make([]string, 0, len(q.Patterns)+len(q.Predicates))
	for _, u := range q.Patterns {
		conds = append(conds, u.String())
	}
	for _, p := range q.Predicates {
		conds = append(conds, p.String())
	}
	if len(conds) > 0 {
		b.WriteString(" where ")
		b.WriteString(strings.Join(conds, " and "))
	}
	if len(q.Weights) > 0 {
		// Weights in select order, then any for an alias the select
		// clause lacks (Parse accepts them; Analyze rejects them), sorted.
		aliases := q.Aliases()
		for a := range q.Weights {
			if _, ok := q.Service(a); !ok {
				aliases = append(aliases, a)
			}
		}
		sort.Strings(aliases[len(q.Services):])
		b.WriteString(" rank ")
		first := true
		for _, a := range aliases {
			w, ok := q.Weights[a]
			if !ok {
				continue
			}
			if !first {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s %s", strconv.FormatFloat(w, 'f', -1, 64), a)
			first = false
		}
	}
	return b.String()
}
