package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
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
// subset of. Each combination maps to its score under the query weights.
func referenceEvaluate(t *testing.T, q *query.Query, tables map[string]*service.Table,
	inputs map[string]types.Value) map[string]float64 {
	t.Helper()
	aliases := q.Aliases()
	rows := make([][]*types.Tuple, len(aliases))
	for i, a := range aliases {
		rows[i] = drainTable(t, tables[a])
	}
	result := map[string]float64{}
	referenceCombos(t, q, rows, inputs, func(combo []*types.Tuple) {
		score := 0.0
		for i, a := range aliases {
			score += q.Weights[a] * combo[i].Score
		}
		result[comboSig(aliases, combo)] = score
	})
	return result
}

// referenceCombos enumerates the brute-force semantics over the given
// rows (rows[i] are the rows of q.Aliases()[i]); emit sees each satisfying
// composite tuple, in alias order, and must not retain the slice. Aliases
// are bound in join order — each one, where it can be, right after an
// alias it joins with — so partial combinations are pruned as early as
// the predicates allow; the semantics does not depend on the order.
func referenceCombos(t *testing.T, q *query.Query, rows [][]*types.Tuple,
	inputs map[string]types.Value, emit func(combo []*types.Tuple)) {
	t.Helper()
	n := len(q.Aliases())
	ord, levels := refLevels(q, inputs)
	bound := make([]*types.Tuple, n) // in join order
	combo := make([]*types.Tuple, n) // in alias order
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			emit(combo)
			return
		}
		for _, tu := range rows[ord[i]] {
			bound[i], combo[ord[i]] = tu, tu
			if levels[i].satisfied(t, bound) {
				rec(i + 1)
			}
		}
		bound[i], combo[ord[i]] = nil, nil
	}
	rec(0)
}

// refLevel is what the alias bound i-th must satisfy: its selections, and
// the join predicates linking it to the aliases bound before it, grouped
// per alias pair so repeating-group mappings stay consistent.
type refLevel struct {
	at    int
	sels  []refSel
	pairs []refPair
}

type refSel struct {
	path string
	op   types.Op
	rhs  types.Value
}

// refPair is one alias pair's conjunction, over positions in join order.
type refPair struct {
	left, right int
	jp          *join.Predicate
}

// refLevels orders the aliases (as indexes into q.Aliases()) so that each
// follows one it shares a join predicate with whenever any remaining alias
// does, and resolves each position's checks.
func refLevels(q *query.Query, inputs map[string]types.Value) ([]int, []refLevel) {
	aliases := q.Aliases()
	joins := q.JoinPredicates()
	pos := map[string]int{}
	var ord []int
	for len(ord) < len(aliases) {
		next := -1
		for i, a := range aliases {
			if _, placed := pos[a]; placed {
				continue
			}
			if next < 0 {
				next = i
			}
			linked := false
			for _, p := range joins {
				_, l := pos[p.Left.Alias]
				_, r := pos[p.Right.Path.Alias]
				linked = linked || (p.Left.Alias == a && r) || (p.Right.Path.Alias == a && l)
			}
			if linked {
				next = i
				break
			}
		}
		pos[aliases[next]] = len(ord)
		ord = append(ord, next)
	}
	levels := make([]refLevel, len(ord))
	for i, a := range ord {
		lv := &levels[i]
		lv.at = i
		for _, p := range q.SelectionsFor(aliases[a]) {
			rhs := p.Right.Const
			if p.Right.Kind == query.TermInput {
				rhs = inputs[p.Right.Input]
			}
			lv.sels = append(lv.sels, refSel{p.Left.Path, p.Op, rhs})
		}
		byPair := map[[2]int]*join.Predicate{}
		for _, p := range joins {
			l, r := pos[p.Left.Alias], pos[p.Right.Path.Alias]
			if max(l, r) != i {
				continue
			}
			jp, ok := byPair[[2]int{l, r}]
			if !ok {
				jp = &join.Predicate{}
				byPair[[2]int{l, r}] = jp
				lv.pairs = append(lv.pairs, refPair{l, r, jp})
			}
			jp.Conds = append(jp.Conds, join.Condition{
				Left: p.Left.Path, Op: p.Op, Right: p.Right.Path.Path,
			})
		}
	}
	return ord, levels
}

// satisfied checks the level against the components bound so far.
func (lv *refLevel) satisfied(t *testing.T, bound []*types.Tuple) bool {
	for _, s := range lv.sels {
		ok, err := refPathSatisfies(bound[lv.at], s.path, s.op, s.rhs)
		if err != nil || !ok {
			return false
		}
	}
	for _, pr := range lv.pairs {
		ok, err := pr.jp.Match(bound[pr.left], bound[pr.right])
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
		tryInput(service.Input{{Path: "Seed", Value: types.Int(1)}})
	case inputs[0] == "Key":
		for id := int64(0); id < 500; id++ {
			tryInput(service.Input{{Path: "Key", Value: types.Int(id)}})
		}
	default:
		t.Fatalf("unexpected input paths %v", inputs)
	}
	return all
}

// comboSig renders a combination as its sorted alias=Id pairs.
func comboSig(aliases []string, combo []*types.Tuple) string {
	parts := make([]string, len(aliases))
	for i, a := range aliases {
		parts[i] = a + "=" + strconv.FormatInt(combo[i].Get("Id").IntVal(), 10)
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

// Soundness and top-k oracle on random pipe forests: every combination
// the engine produces for a random workload must belong to the
// brute-force semantics of Section 3.1, and whenever the semantics is
// non-empty the engine (with generous fetch factors) finds at least one
// combination. With a target K, the pull driver's certified top-K, the
// drain's top-K and the brute-force top-K (the reference combinations
// scored with the query weights) must agree, at every look-ahead depth;
// combinations tied at the cut may differ. The first 20 seeds also run
// the windowed depths on a clock that waits, whose look-ahead and
// prefetch goroutines a VirtualClock never starts.
func TestEngineSoundAgainstReferenceSemantics(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
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
		e, overlapped := New(w.Services(), nil), New(w.Services(), &yieldClock{})
		run, err := e.Execute(context.Background(), a, Options{
			Inputs: w.Inputs, Weights: q.Weights,
		})
		if err != nil {
			t.Fatalf("seed %d: execute: %v", seed, err)
		}
		for _, c := range run.Combinations {
			sig := engineComboSig(c)
			if _, ok := ref[sig]; !ok {
				t.Errorf("seed %d: engine produced %s outside the reference semantics (%d ref combos)",
					seed, sig, len(ref))
			}
		}
		if len(ref) > 0 && len(run.Combinations) == 0 {
			t.Errorf("seed %d: reference has %d combinations, engine found none (topology %v)",
				seed, len(ref), res.Topology)
		}

		for _, k := range []int{1, 5} {
			want := referenceTopK(ref, k)
			for _, par := range []int{1, 2, 8} {
				engines := []*Engine{e}
				if seed < 20 && par > 1 {
					engines = append(engines, overlapped)
				}
				for _, e := range engines {
					var got [2][]scoredSig
					for i, materialize := range []bool{false, true} {
						run, err := e.Execute(context.Background(), a, Options{
							Inputs: w.Inputs, Weights: q.Weights, TargetK: k, Parallelism: par, Materialize: materialize,
						})
						if err != nil {
							t.Fatalf("seed %d K=%d P=%d materialize=%v: %v", seed, k, par, materialize, err)
						}
						for _, c := range run.Combinations {
							got[i] = append(got[i], scoredSig{engineComboSig(c), c.Score})
						}
					}
					cell := fmt.Sprintf("seed %d K=%d P=%d clock %T", seed, k, par, e.Clock())
					sameTopK(t, cell+": pull vs drain", got[0], got[1])
					sameTopK(t, cell+": pull vs reference", got[0], want)
					sameTopK(t, cell+": drain vs reference", got[1], want)
				}
			}
		}
	}
}

// scoredSig is one combination reduced to its component Ids and score.
type scoredSig struct {
	sig   string
	score float64
}

// referenceTopK ranks the reference combinations by score and keeps k.
func referenceTopK(ref map[string]float64, k int) []scoredSig {
	var top []scoredSig
	for sig, score := range ref {
		s := scoredSig{sig, score}
		i := sort.Search(len(top), func(i int) bool {
			return top[i].score < score || (top[i].score == score && top[i].sig > sig)
		})
		if i < k {
			top = append(top, s)
			copy(top[i+1:], top[i:])
			top[i] = s
			if len(top) > k {
				top = top[:k]
			}
		}
	}
	return top
}

// sameTopK asserts two ranked top-K lists agree: equal length, equal
// scores rank by rank, and the same combinations strictly above the cut —
// combinations tied with the K-th score may be any of the tied ones.
func sameTopK(t *testing.T, what string, got, want []scoredSig) {
	t.Helper()
	const eps = 1e-9
	if len(got) != len(want) {
		t.Errorf("%s: %d combinations, want %d", what, len(got), len(want))
		return
	}
	if len(got) == 0 {
		return
	}
	cut := want[len(want)-1].score
	above := func(l []scoredSig) []string {
		var out []string
		for _, s := range l {
			if s.score > cut+eps {
				out = append(out, s.sig)
			}
		}
		sort.Strings(out)
		return out
	}
	for i := range got {
		if math.Abs(got[i].score-want[i].score) > eps {
			t.Errorf("%s: rank %d scores %.12f, want %.12f", what, i, got[i].score, want[i].score)
			return
		}
	}
	if a, b := above(got), above(want); strings.Join(a, ";") != strings.Join(b, ";") {
		t.Errorf("%s: above the cut %v, want %v", what, a, b)
	}
}

func engineComboSig(c *types.Combination) string {
	parts := make([]string, 0, len(c.Components))
	for a, tu := range c.Components {
		parts = append(parts, a+"="+strconv.FormatInt(tu.Get("Id").IntVal(), 10))
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}
