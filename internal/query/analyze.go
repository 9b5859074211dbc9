package query

import (
	"fmt"

	"seco/internal/mart"
	"seco/internal/types"
)

// Analyze resolves the query against a registry: interfaces for every
// service occurrence, connection patterns for every shorthand (checking
// mart compatibility and direction), attribute paths and type
// compatibility for every predicate, and rank weights. When the query has
// no rank clause, search services receive uniform weights summing to 1 and
// exact services weight 0, per the chapter's rule.
func (q *Query) Analyze(reg *mart.Registry) error {
	if len(q.Services) == 0 {
		return fmt.Errorf("query: no services selected")
	}
	for i := range q.Services {
		ref := &q.Services[i]
		si, ok := reg.Interface(ref.InterfaceName)
		if !ok {
			// Queries may be posed at the higher abstraction level of
			// service marts (Section 3.1): bind the first registered
			// interface of the mart; phase 1 of the optimizer explores
			// the alternatives.
			if m, isMart := reg.Mart(ref.InterfaceName); isMart {
				cands := reg.InterfacesFor(m.Name)
				if len(cands) == 0 {
					return fmt.Errorf("query: mart %q has no registered interface", m.Name)
				}
				si = cands[0]
			} else {
				return fmt.Errorf("query: unknown service interface or mart %q", ref.InterfaceName)
			}
		}
		ref.Interface = si
	}
	for i := range q.Patterns {
		u := &q.Patterns[i]
		cp, ok := reg.Pattern(u.Name)
		if !ok {
			return fmt.Errorf("query: unknown connection pattern %q", u.Name)
		}
		from, ok := q.Service(u.FromAlias)
		if !ok {
			return fmt.Errorf("query: pattern %s references unknown alias %q", u.Name, u.FromAlias)
		}
		to, ok := q.Service(u.ToAlias)
		if !ok {
			return fmt.Errorf("query: pattern %s references unknown alias %q", u.Name, u.ToAlias)
		}
		if from.Interface.Mart.Name != cp.From.Name || to.Interface.Mart.Name != cp.To.Name {
			return fmt.Errorf("query: pattern %s connects %s→%s, not %s→%s",
				u.Name, cp.From.Name, cp.To.Name,
				from.Interface.Mart.Name, to.Interface.Mart.Name)
		}
		u.Pattern = cp
	}
	for _, p := range q.Predicates {
		lk, err := q.pathKind(p.Left)
		if err != nil {
			return err
		}
		switch p.Right.Kind {
		case TermConst:
			if err := checkComparable(lk, p.Right.Const.Kind(), p); err != nil {
				return err
			}
		case TermPath:
			rk, err := q.pathKind(p.Right.Path)
			if err != nil {
				return err
			}
			if err := checkComparable(lk, rk, p); err != nil {
				return err
			}
		case TermInput:
			// INPUT values are type-checked when bound at execution time.
		}
		if p.Op == types.OpLike && lk != types.KindString {
			return fmt.Errorf("query: %s: like requires a string attribute", p)
		}
	}
	for alias, w := range q.Weights {
		if _, ok := q.Service(alias); !ok {
			return fmt.Errorf("query: rank weight for unknown alias %q", alias)
		}
		if w < 0 {
			return fmt.Errorf("query: negative rank weight %v for %q", w, alias)
		}
	}
	if len(q.Weights) == 0 {
		q.defaultWeights()
	}
	q.joins = q.deriveJoins()
	q.analyzed = true
	return nil
}

// Analyzed reports whether Analyze has succeeded on the query.
func (q *Query) Analyzed() bool { return q.analyzed }

func (q *Query) pathKind(p PathRef) (types.Kind, error) {
	ref, ok := q.Service(p.Alias)
	if !ok {
		return types.KindNull, fmt.Errorf("query: unknown alias %q in %s", p.Alias, p)
	}
	k, err := ref.Interface.Mart.PathKind(p.Path)
	if err != nil {
		return types.KindNull, fmt.Errorf("query: %s: %w", p, err)
	}
	return k, nil
}

func checkComparable(a, b types.Kind, p Predicate) error {
	if a == b {
		return nil
	}
	numeric := func(k types.Kind) bool { return k == types.KindInt || k == types.KindFloat }
	if numeric(a) && numeric(b) {
		return nil
	}
	if b == types.KindNull {
		return nil // null literal compares with anything (always false)
	}
	return fmt.Errorf("query: %s: incompatible kinds %s and %s", p, a, b)
}

// defaultWeights assigns uniform weights to search services and zero to
// exact services.
func (q *Query) defaultWeights() {
	searchCount := 0
	for _, s := range q.Services {
		if s.Interface.IsSearch() {
			searchCount++
		}
	}
	for _, s := range q.Services {
		if s.Interface.IsSearch() {
			q.Weights[s.Alias] = 1 / float64(searchCount)
		} else {
			q.Weights[s.Alias] = 0
		}
	}
}
