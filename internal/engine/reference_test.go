package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"seco/internal/cost"
	"seco/internal/join"
	"seco/internal/optimizer"
	"seco/internal/plan"
	"seco/internal/query"
	"seco/internal/service"
	"seco/internal/synth"
	"seco/internal/types"
)

// referenceEvaluate computes the formal query semantics of Section 3.1 by
// brute force: the largest set of composite tuples drawn from the full
// cross product of the services' rows that satisfies every selection and
// join predicate (with consistent repeating-group mappings per alias
// pair). It ignores access limitations, rankings, chunking and fetch
// budgets entirely — a semantics oracle the engine's output must be a
// subset of.
func referenceEvaluate(t *testing.T, q *query.Query, tables map[string]*service.Table,
	inputs map[string]types.Value) map[string]bool {
	t.Helper()
	aliases := q.Aliases()
	rows := make([][]*types.Tuple, len(aliases))
	for i, a := range aliases {
		rows[i] = drainTable(t, tables[a])
	}
	result := map[string]bool{}
	referenceCombos(t, q, rows, inputs, func(combo []*types.Tuple) {
		result[comboSig(aliases, combo)] = true
	})
	return result
}

// referenceCombos enumerates the brute-force semantics over the given
// rows (rows[i] are the rows of q.Aliases()[i]); emit sees each satisfying
// composite tuple, in alias order, and must not retain the slice.
func referenceCombos(t *testing.T, q *query.Query, rows [][]*types.Tuple,
	inputs map[string]types.Value, emit func(combo []*types.Tuple)) {
	t.Helper()
	aliases := q.Aliases()
	joins := q.JoinPredicates()
	combo := make([]*types.Tuple, len(aliases))
	var rec func(i int)
	rec = func(i int) {
		if i == len(aliases) {
			emit(combo)
			return
		}
		for _, tu := range rows[i] {
			combo[i] = tu
			if refSatisfies(t, q, aliases, combo, i, joins, inputs) {
				rec(i + 1)
			}
		}
		combo[i] = nil
	}
	rec(0)
}

// refSatisfies checks all predicates whose aliases are bound among the
// first i+1 components.
func refSatisfies(t *testing.T, q *query.Query, aliases []string, combo []*types.Tuple,
	upto int, joins []query.Predicate, inputs map[string]types.Value) bool {
	t.Helper()
	bound := map[string]*types.Tuple{}
	for i := 0; i <= upto; i++ {
		bound[aliases[i]] = combo[i]
	}
	// Selections on the newly bound alias.
	for _, p := range q.SelectionsFor(aliases[upto]) {
		rhs := p.Right.Const
		if p.Right.Kind == query.TermInput {
			rhs = inputs[p.Right.Input]
		}
		ok, err := refPathSatisfies(bound[aliases[upto]], p.Left.Path, p.Op, rhs)
		if err != nil || !ok {
			return false
		}
	}
	// Join predicates with both sides bound, grouped per alias pair so
	// repeating-group mappings stay consistent.
	byPair := map[string]*join.Predicate{}
	pairTuples := map[string][2]*types.Tuple{}
	for _, p := range joins {
		lt, lok := bound[p.Left.Alias]
		rt, rok := bound[p.Right.Path.Alias]
		if !lok || !rok {
			continue
		}
		// Only re-check pairs involving the newly bound alias.
		if p.Left.Alias != aliases[upto] && p.Right.Path.Alias != aliases[upto] {
			continue
		}
		key := p.Left.Alias + "|" + p.Right.Path.Alias
		jp, ok := byPair[key]
		if !ok {
			jp = &join.Predicate{}
			byPair[key] = jp
			pairTuples[key] = [2]*types.Tuple{lt, rt}
		}
		jp.Conds = append(jp.Conds, join.Condition{
			Left: p.Left.Path, Op: p.Op, Right: p.Right.Path.Path,
		})
	}
	for key, jp := range byPair {
		ts := pairTuples[key]
		ok, err := jp.Match(ts[0], ts[1])
		if err != nil {
			t.Fatalf("reference predicate: %v", err)
		}
		if !ok {
			return false
		}
	}
	return true
}

// refPathSatisfies is the oracle's own path semantics (kept independent
// of the engine's compiled selections): atomic paths evaluate directly,
// dotted paths existentially over the group's sub-tuples, and a dotted
// path on a missing group resolves to Null.
func refPathSatisfies(tu *types.Tuple, path string, op types.Op, rhs types.Value) (bool, error) {
	g, sub, dotted := strings.Cut(path, ".")
	if !dotted {
		return op.Eval(tu.Get(path), rhs)
	}
	subs, ok := tu.Groups[g]
	if !ok {
		return op.Eval(types.Null, rhs)
	}
	for _, st := range subs {
		ok, err := op.Eval(st[sub], rhs)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

// drainTable enumerates the rows of a workload table by invoking it for
// every plausible input value (Seed = 1 for roots, Key = 0..maxID for
// children) — the Table intentionally exposes no raw accessor, and the
// workload tables are small, so this stays cheap.
func drainTable(t *testing.T, tab *service.Table) []*types.Tuple {
	t.Helper()
	var all []*types.Tuple
	inputs := tab.Interface().InputPaths()
	tryInput := func(in service.Input) {
		inv, err := tab.Invoke(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		for {
			c, err := inv.Fetch(context.Background())
			if errors.Is(err, service.ErrExhausted) {
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, c.Tuples...)
			if len(c.Tuples) == 0 {
				return
			}
		}
	}
	switch {
	case len(inputs) == 0:
		tryInput(nil)
	case inputs[0] == "Seed":
		tryInput(service.Input{"Seed": types.Int(1)})
	case inputs[0] == "Key":
		for id := int64(0); id < 500; id++ {
			tryInput(service.Input{"Key": types.Int(id)})
		}
	default:
		t.Fatalf("unexpected input paths %v", inputs)
	}
	return all
}

func comboSig(aliases []string, combo []*types.Tuple) string {
	parts := make([]string, len(aliases))
	for i, a := range aliases {
		parts[i] = fmt.Sprintf("%s=%d", a, combo[i].Get("Id").IntVal())
	}
	sort.Strings(parts)
	return fmt.Sprint(parts)
}

// Soundness oracle: every combination the engine produces for a random
// workload must belong to the brute-force semantics of Section 3.1, and
// whenever the semantics is non-empty the engine (with generous fetch
// factors) finds at least one combination.
func TestEngineSoundAgainstReferenceSemantics(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		n := 2 + int(seed%4)
		w, err := synth.RandomWorkload(seed, n)
		if err != nil {
			t.Fatal(err)
		}
		q, err := query.Parse(w.QueryText)
		if err != nil {
			t.Fatal(err)
		}
		if err := q.Analyze(w.Registry); err != nil {
			t.Fatal(err)
		}
		ref := referenceEvaluate(t, q, w.Tables, w.Inputs)

		res, err := optimizer.Optimize(q, w.Registry, optimizer.Options{
			K: 1000, Metric: cost.RequestResponse{}, Stats: w.Stats, FixedInterfaces: true,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Complete the search space: rectangular joins, generous fetches.
		p := res.Plan.Clone()
		fetches := map[string]int{}
		for _, id := range p.NodeIDs() {
			node, _ := p.Node(id)
			if node.Kind == plan.KindJoin {
				node.Strategy.Completion = join.Rectangular
			}
			if node.Kind == plan.KindService && node.Stats.Chunked() {
				fetches[id] = 50
			}
		}
		a, err := plan.Annotate(p, fetches)
		if err != nil {
			t.Fatal(err)
		}
		run, err := New(w.Services(), nil).Execute(context.Background(), a, Options{
			Inputs: w.Inputs, Weights: q.Weights,
		})
		if err != nil {
			t.Fatalf("seed %d: execute: %v", seed, err)
		}
		for _, c := range run.Combinations {
			sig := engineComboSig(c)
			if !ref[sig] {
				t.Errorf("seed %d: engine produced %s outside the reference semantics (%d ref combos)",
					seed, sig, len(ref))
			}
		}
		if len(ref) > 0 && len(run.Combinations) == 0 {
			t.Errorf("seed %d: reference has %d combinations, engine found none (topology %v)",
				seed, len(ref), res.Topology)
		}
	}
}

func engineComboSig(c *types.Combination) string {
	parts := make([]string, 0, len(c.Components))
	for a, tu := range c.Components {
		parts = append(parts, fmt.Sprintf("%s=%d", a, tu.Get("Id").IntVal()))
	}
	sort.Strings(parts)
	return fmt.Sprint(parts)
}
