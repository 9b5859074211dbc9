package core

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"seco/internal/engine"
	"seco/internal/mart"
	"seco/internal/obs"
	"seco/internal/optimizer"
	"seco/internal/service"
	"seco/internal/types"
)

// planScenario builds a scenario system and plans its canonical query.
func planScenario(t *testing.T, scenario string, k int) (*System, map[string]types.Value, *optimizer.Result) {
	t.Helper()
	sys, inputs, text, err := Scenario(scenario, 7)
	if err != nil {
		t.Fatal(err)
	}
	q, err := sys.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Plan(q, PlanOptions{K: k})
	if err != nil {
		t.Fatal(err)
	}
	return sys, inputs, res
}

// batches runs rounds of a session, stopping after an empty batch.
func batches(t *testing.T, sess *engine.Session, rounds int) [][]*types.Combination {
	t.Helper()
	var out [][]*types.Combination
	for r := 0; r < rounds; r++ {
		batch, err := sess.Next(context.Background())
		if err != nil {
			t.Fatalf("round %d: %v", r+1, err)
		}
		out = append(out, batch)
		if len(batch) == 0 {
			break
		}
	}
	return out
}

// With the starting fetch factors forced to 1, the plan under-delivers;
// continuing the session reaches K combinations across rounds, in rank
// order within each batch and without repeats.
func TestSessionReachesTarget(t *testing.T) {
	sys, inputs, res := planScenario(t, "movienight", 8)
	for id := range res.Annotated.Fetches {
		res.Annotated.Fetches[id] = 1
	}
	sess, err := sys.Session(res, RunOptions{Inputs: inputs})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for round, batch := range batches(t, sess, 6) {
		for i, c := range batch {
			if i > 0 && c.Score > batch[i-1].Score+1e-12 {
				t.Fatalf("round %d unranked at %d", round+1, i)
			}
			if seen[fingerprint(c)] {
				t.Fatalf("round %d repeats %s", round+1, fingerprint(c))
			}
			seen[fingerprint(c)] = true
		}
		if len(seen) >= 8 {
			return
		}
	}
	t.Fatalf("six rounds delivered %d of 8 combinations", len(seen))
}

// An impossible K ends the session with an empty batch once the services
// are exhausted.
func TestSessionStopsOnExhaustion(t *testing.T) {
	sys, inputs, res := planScenario(t, "movienight", 10)
	res.Plan.K = 100000
	sess, err := sys.Session(res, RunOptions{Inputs: inputs})
	if err != nil {
		t.Fatal(err)
	}
	got := batches(t, sess, 20)
	if len(got[0]) == 0 {
		t.Fatal("exhaustion session produced nothing")
	}
	if last := got[len(got)-1]; len(last) != 0 {
		t.Fatalf("20 rounds without an empty batch (last held %d)", len(last))
	}
}

// Every RunOptions field reaches the engine through the one hand-off
// shared by Run and Session, and Session either honours it or refuses it
// by name.
func TestRunOptionsHandOff(t *testing.T) {
	sys, inputs, res := planScenario(t, "movienight", 5)
	tr, reg := obs.NewTracer(), obs.NewRegistry()
	cases := []struct {
		field   string
		set     func(*RunOptions)
		landed  func(engine.Config, engine.Options) bool
		refused bool // Session returns an error naming the field
	}{
		{"Inputs", func(o *RunOptions) { o.Inputs = inputs },
			func(_ engine.Config, e engine.Options) bool { return reflect.DeepEqual(e.Inputs, inputs) }, false},
		{"Parallelism", func(o *RunOptions) { o.Parallelism = 3 },
			func(_ engine.Config, e engine.Options) bool { return e.Parallelism == 3 }, false},
		{"LiveLatency", func(o *RunOptions) { o.LiveLatency = true },
			func(c engine.Config, _ engine.Options) bool { return c.Clock == engine.WallClock{} }, false},
		{"CacheCalls", func(o *RunOptions) { o.CacheCalls = true },
			func(c engine.Config, _ engine.Options) bool { return c.Share }, false},
		{"Materialize", func(o *RunOptions) { o.Materialize = true },
			func(_ engine.Config, e engine.Options) bool { return e.Materialize }, false},
		{"Budget", func(o *RunOptions) { o.Budget = time.Second },
			func(_ engine.Config, e engine.Options) bool { return e.Budget == time.Second }, false},
		{"Degrade", func(o *RunOptions) { o.Degrade = true },
			func(_ engine.Config, e engine.Options) bool { return e.Degrade }, false},
		{"Trace", func(o *RunOptions) { o.Trace = tr },
			func(_ engine.Config, e engine.Options) bool { return e.Trace == tr }, true},
		{"Metrics", func(o *RunOptions) { o.Metrics = reg },
			func(c engine.Config, _ engine.Options) bool { return c.Metrics == reg }, false},
		{"Fidelity", func(o *RunOptions) { o.Fidelity = true },
			func(_ engine.Config, e engine.Options) bool { return e.Fidelity }, true},
		{"DriftThreshold", func(o *RunOptions) { o.DriftThreshold = 3 },
			func(_ engine.Config, e engine.Options) bool { return e.DriftThreshold == 3 }, false},
	}
	covered := map[string]bool{}
	for _, c := range cases {
		covered[c.field] = true
	}
	fields := reflect.TypeOf(RunOptions{})
	for i := 0; i < fields.NumField(); i++ {
		if name := fields.Field(i).Name; !covered[name] {
			t.Errorf("RunOptions.%s has no hand-off case", name)
		}
	}
	var zero RunOptions
	for _, c := range cases {
		t.Run(c.field, func(t *testing.T) {
			if c.landed(zero.config(), zero.options(res)) {
				t.Fatal("check passes on the zero value; it proves nothing")
			}
			var opts RunOptions
			c.set(&opts)
			if !c.landed(opts.config(), opts.options(res)) {
				t.Error("dropped on the way to the engine")
			}
			_, err := sys.Session(res, opts)
			switch {
			case c.refused && (err == nil || !strings.Contains(err.Error(), c.field)):
				t.Errorf("Session err = %v, want a refusal naming %s", err, c.field)
			case !c.refused && err != nil:
				t.Errorf("Session refused it: %v", err)
			}
		})
	}
}

// A budget small enough to degrade round 1 applies to every round, and a
// round hands out only its certified prefix: the degraded batch holds at
// most CertifiedK combinations, each with the same rank and score as in
// round 1 of the unbudgeted session. (At this budget the round returns
// five combinations and certifies none of them; Parallelism 1 keeps the
// cut deterministic.)
func TestSessionDegradedRoundReturnsCertifiedPrefix(t *testing.T) {
	sys, inputs, res := planScenario(t, "conftravel", 5)
	ctx := context.Background()
	clean, err := sys.Run(ctx, res, RunOptions{Inputs: inputs})
	if err != nil {
		t.Fatal(err)
	}
	budgeted := RunOptions{Inputs: inputs, Parallelism: 1, Budget: clean.Elapsed / 2, Degrade: true}
	first, err := sys.Run(ctx, res, budgeted)
	if err != nil {
		t.Fatal(err)
	}
	if first.Degraded == nil || first.Degraded.CertifiedK >= len(first.Combinations) {
		t.Fatalf("round 1 not degraded past its certified prefix (degraded %v, %d results)",
			first.Degraded, len(first.Combinations))
	}
	plain, err := sys.Session(res, RunOptions{Inputs: inputs})
	if err != nil {
		t.Fatal(err)
	}
	want := batches(t, plain, 1)[0]
	sess, err := sys.Session(res, budgeted)
	if err != nil {
		t.Fatal(err)
	}
	var got [][]*types.Combination
	for round := 1; round <= 3; round++ {
		batch, err := sess.Next(ctx)
		if err != nil {
			t.Fatalf("round %d under the per-round budget: %v", round, err)
		}
		got = append(got, batch)
	}
	if n := len(got[0]); n > first.Degraded.CertifiedK {
		t.Fatalf("degraded batch holds %d combinations, certified %d", n, first.Degraded.CertifiedK)
	}
	for i, c := range got[0] {
		if fingerprint(c) != fingerprint(want[i]) || c.Score != want[i].Score {
			t.Errorf("degraded batch %d: %s (%.6f), unbudgeted %s (%.6f)",
				i, fingerprint(c), c.Score, fingerprint(want[i]), want[i].Score)
		}
	}
	seen := map[string]bool{}
	for round, batch := range got {
		for _, c := range batch {
			if seen[fingerprint(c)] {
				t.Errorf("round %d repeats %s", round+1, fingerprint(c))
			}
			seen[fingerprint(c)] = true
		}
	}
}

// wireCounter is a service under the Share layer that records every
// chunk reaching it as (interface, input binding, chunk index).
type wireCounter struct {
	inner service.Service
	mu    *sync.Mutex
	seen  map[string]int
}

func (w *wireCounter) Interface() *mart.Interface { return w.inner.Interface() }
func (w *wireCounter) Stats() service.Stats       { return w.inner.Stats() }
func (w *wireCounter) Unwrap() service.Service    { return w.inner }

func (w *wireCounter) Invoke(ctx context.Context, in service.Input) (service.Invocation, error) {
	inv, err := w.inner.Invoke(ctx, in)
	if err != nil {
		return nil, err
	}
	return &wireInvocation{svc: w, key: w.inner.Interface().Name + "(" + fmt.Sprint(in) + ")", inner: inv}, nil
}

type wireInvocation struct {
	svc   *wireCounter
	key   string
	inner service.Invocation
	chunk int
}

func (wi *wireInvocation) Fetch(ctx context.Context) (service.Chunk, error) {
	c, err := wi.inner.Fetch(ctx)
	if err == nil {
		wi.svc.mu.Lock()
		wi.svc.seen[fmt.Sprintf("%s#%d", wi.key, wi.chunk)]++
		wi.svc.mu.Unlock()
		wi.chunk++
	}
	return c, err
}

// A session's later rounds replay the chunks earlier rounds fetched: over
// four rounds no chunk reaches the wire twice, and every batch equals the
// one a session on a non-sharing engine returns. The counter sits under
// each interface's one Share layer, so the key is the interface rather
// than the alias — the stronger claim where two aliases share one. The
// four rounds together stay within the wire fetches measured when
// sessions started sharing (48 / 61 / 27; without sharing ~50 / ~2290 /
// ~82). Triangle gets the pull driver's in-flight prefetch jitter on top:
// it lands on 25-28.
func TestSessionNeverRefetchesAChunk(t *testing.T) {
	for scenario, maxWire := range map[string]int{"movienight": 48, "conftravel": 61, "triangle": 27 + 2} {
		t.Run(scenario, func(t *testing.T) {
			sys, inputs, res := planScenario(t, scenario, 5)
			var mu sync.Mutex
			fetched := map[string]int{}
			counted := NewSystemWith(sys.Registry())
			for _, ref := range res.Query.Services {
				if _, done := counted.Service(ref.Interface.Name); done {
					continue
				}
				svc, _ := sys.Service(ref.Interface.Name)
				if err := counted.Bind(&wireCounter{inner: svc, mu: &mu, seen: fetched}); err != nil {
					t.Fatal(err)
				}
			}
			opts := RunOptions{Inputs: inputs}
			shared, err := counted.Session(res, opts)
			if err != nil {
				t.Fatal(err)
			}
			unshared, err := sys.Engine(res, engine.Config{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			ref := engine.NewSession(unshared, res.Plan, res.Annotated.Fetches, opts.options(res))
			got, want := batches(t, shared, 4), batches(t, ref, 4)
			if g, w := fmt.Sprint(batchPrints(got)), fmt.Sprint(batchPrints(want)); g != w {
				t.Errorf("shared session batches differ from unshared:\n got %s\nwant %s", g, w)
			}
			total := 0
			for key, n := range fetched {
				total += n
				if n > 1 {
					t.Errorf("chunk %s fetched %d times", key, n)
				}
			}
			if total > maxWire {
				t.Errorf("%d rounds reached the wire %d times, want at most %d", len(got), total, maxWire)
			}
		})
	}
}

func batchPrints(bs [][]*types.Combination) [][]string {
	out := make([][]string, len(bs))
	for i, b := range bs {
		out[i] = fingerprints(b)
	}
	return out
}
