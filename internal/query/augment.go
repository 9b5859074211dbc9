package query

import (
	"fmt"
	"sort"
	"strings"

	"seco/internal/mart"
	"seco/internal/types"
)

// This file implements the query-augmentation analysis sketched in
// Section 2.3: when no permissible choice of access patterns exists, the
// original query cannot be answered, but "off-query" services available in
// the schema may be invoked so that their output fields provide useful
// bindings for the uncovered input fields. We implement the non-recursive
// suggestion layer: for every uncovered input attribute of an unreachable
// service, find registry interfaces whose outputs could supply it, either
// through a registered connection pattern or by attribute-domain match
// (same name and kind — the "same abstract domain" approximation).

// Suggestion proposes one off-query service that could cover one input.
type Suggestion struct {
	// ForAlias and Path identify the uncovered input.
	ForAlias string
	Path     string
	// Interface is the off-query service to invoke.
	Interface *mart.Interface
	// OutputPath is the interface's output attribute supplying the value.
	OutputPath string
	// ViaPattern names the connection pattern justifying the link, empty
	// for a domain-name match.
	ViaPattern string
	// Recursive reports that the suggested service has input attributes
	// itself, so using it may require the recursive plans of Section 2.3.
	Recursive bool
}

// String renders the suggestion.
func (s Suggestion) String() string {
	via := "domain match"
	if s.ViaPattern != "" {
		via = "pattern " + s.ViaPattern
	}
	rec := ""
	if s.Recursive {
		rec = ", recursive"
	}
	return fmt.Sprintf("%s.%s ← %s.%s (%s%s)", s.ForAlias, s.Path, s.Interface.Name, s.OutputPath, via, rec)
}

// UncoveredInputs returns, for every unreachable service of an analyzed
// query, the input paths that no predicate or reachable join covers.
func (q *Query) UncoveredInputs() (map[string][]string, error) {
	f, err := q.CheckFeasibility()
	if err != nil {
		return nil, err
	}
	joins := q.JoinPredicates()
	reached := map[string]bool{}
	for _, a := range f.Order {
		reached[a] = true
	}
	out := map[string][]string{}
	for _, alias := range f.Unreachable {
		ref, _ := q.Service(alias)
		var missing []string
		for _, p := range ref.Interface.InputPaths() {
			if _, ok := q.coverOne(alias, p, joins, reached); !ok {
				missing = append(missing, p)
			}
		}
		out[alias] = missing
	}
	return out, nil
}

// SuggestAugmentations proposes off-query services for every uncovered
// input of an infeasible query. Suggestions come sorted by alias, path and
// interface name; an empty result for an infeasible query means the
// registry offers no augmentation.
func (q *Query) SuggestAugmentations(reg *mart.Registry) ([]Suggestion, error) {
	if !q.analyzed {
		return nil, fmt.Errorf("query: SuggestAugmentations before successful Analyze")
	}
	uncovered, err := q.UncoveredInputs()
	if err != nil {
		return nil, err
	}
	used := map[string]bool{}
	for _, ref := range q.Services {
		used[ref.Interface.Name] = true
	}
	var out []Suggestion
	for alias, paths := range uncovered {
		ref, _ := q.Service(alias)
		for _, path := range paths {
			out = append(out, q.suggestFor(reg, used, ref, alias, path)...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ForAlias != out[j].ForAlias {
			return out[i].ForAlias < out[j].ForAlias
		}
		if out[i].Path != out[j].Path {
			return out[i].Path < out[j].Path
		}
		return out[i].Interface.Name < out[j].Interface.Name
	})
	return out, nil
}

// Augment applies a suggestion: it returns a copy of the query extended
// with the suggested off-query service under a fresh alias, equality join
// predicates binding the uncovered inputs to the service's outputs, and
// weight 0 for the new alias (it contributes bindings, not ranking). One
// augmentation covers everything the service offers: besides the
// suggestion's own path, every other still-uncovered input of the target
// service with a domain-matching output on the added interface is bound
// too. The result is the "approximation of the original query" of
// Section 2.3; feasibility must be re-checked, since a recursive
// suggestion may still leave the query unanswerable.
func (q *Query) Augment(s Suggestion) (*Query, error) {
	if !q.analyzed {
		return nil, fmt.Errorf("query: Augment before successful Analyze")
	}
	if _, ok := q.Service(s.ForAlias); !ok {
		return nil, fmt.Errorf("query: Augment for unknown alias %q", s.ForAlias)
	}
	alias := freshAlias(q, s.Interface.Name)
	c := *q
	c.Services = append(append([]ServiceRef(nil), q.Services...), ServiceRef{
		Alias: alias, InterfaceName: s.Interface.Name, Interface: s.Interface,
	})
	preds := append([]Predicate(nil), q.Predicates...)
	preds = append(preds, Predicate{
		Left: PathRef{Alias: s.ForAlias, Path: s.Path},
		Op:   types.OpEq,
		Right: Term{Kind: TermPath,
			Path: PathRef{Alias: alias, Path: s.OutputPath}},
	})
	// Bind the remaining uncovered inputs the added service can supply.
	if uncovered, err := q.UncoveredInputs(); err == nil {
		for _, path := range uncovered[s.ForAlias] {
			if path == s.Path {
				continue
			}
			if out, ok := domainMatch(s.Interface, q, s.ForAlias, path); ok {
				preds = append(preds, Predicate{
					Left: PathRef{Alias: s.ForAlias, Path: path},
					Op:   types.OpEq,
					Right: Term{Kind: TermPath,
						Path: PathRef{Alias: alias, Path: out}},
				})
			}
		}
	}
	c.Predicates = preds
	c.joins = c.deriveJoins()
	c.Weights = make(map[string]float64, len(q.Weights)+1)
	for k, v := range q.Weights {
		c.Weights[k] = v
	}
	c.Weights[alias] = 0
	return &c, nil
}

// domainMatch finds an output path of si matching the terminal name and
// kind of the target's input path.
func domainMatch(si *mart.Interface, q *Query, alias, path string) (string, bool) {
	ref, ok := q.Service(alias)
	if !ok {
		return "", false
	}
	kind, err := ref.Interface.Mart.PathKind(path)
	if err != nil {
		return "", false
	}
	terminal := path
	if _, sub, ok := strings.Cut(path, "."); ok {
		terminal = sub
	}
	for _, op := range si.OutputPaths() {
		t := op
		if _, sub, ok := strings.Cut(op, "."); ok {
			t = sub
		}
		if t != terminal {
			continue
		}
		if k, err := si.Mart.PathKind(op); err == nil && k == kind {
			return op, true
		}
	}
	return "", false
}

// freshAlias derives an unused alias from the interface name.
func freshAlias(q *Query, base string) string {
	alias := "Aug" + base
	for i := 0; ; i++ {
		cand := alias
		if i > 0 {
			cand = fmt.Sprintf("%s%d", alias, i)
		}
		if _, taken := q.Service(cand); !taken {
			return cand
		}
	}
}

func (q *Query) suggestFor(reg *mart.Registry, used map[string]bool, ref *ServiceRef, alias, path string) []Suggestion {
	kind, err := ref.Interface.Mart.PathKind(path)
	if err != nil {
		return nil
	}
	var out []Suggestion
	seen := map[string]bool{}
	add := func(si *mart.Interface, outPath, pattern string) {
		key := si.Name + "|" + outPath
		if seen[key] {
			return
		}
		seen[key] = true
		out = append(out, Suggestion{
			ForAlias: alias, Path: path,
			Interface: si, OutputPath: outPath,
			ViaPattern: pattern,
			Recursive:  len(si.InputPaths()) > 0,
		})
	}
	// 1. Connection patterns ending (or starting) at the uncovered path.
	for _, pname := range reg.Patterns() {
		cp, _ := reg.Pattern(pname)
		var otherMart *mart.Mart
		var otherPath string
		for _, j := range cp.Joins {
			if cp.To.Name == ref.Interface.Mart.Name && j.To == path {
				otherMart, otherPath = cp.From, j.From
			}
			if cp.From.Name == ref.Interface.Mart.Name && j.From == path {
				otherMart, otherPath = cp.To, j.To
			}
		}
		if otherMart == nil {
			continue
		}
		for _, si := range reg.InterfacesFor(otherMart.Name) {
			if used[si.Name] || si.Adornments[otherPath] == mart.Input {
				continue
			}
			add(si, otherPath, cp.Name)
		}
	}
	// 2. Domain matches: any registered interface with an output path of
	// the same terminal attribute name and kind.
	terminal := path
	if _, sub, ok := strings.Cut(path, "."); ok {
		terminal = sub
	}
	for _, martName := range reg.Marts() {
		for _, si := range reg.InterfacesFor(martName) {
			if used[si.Name] {
				continue
			}
			for _, op := range si.OutputPaths() {
				t := op
				if _, sub, ok := strings.Cut(op, "."); ok {
					t = sub
				}
				if t != terminal {
					continue
				}
				k, err := si.Mart.PathKind(op)
				if err != nil || k != kind || k == types.KindNull {
					continue
				}
				add(si, op, "")
			}
		}
	}
	return out
}
