// Package seco's root benchmark suite: one benchmark per experiment of
// EXPERIMENTS.md (the chapter's worked figures E1–E6 and measured claims
// E7–E12), plus micro-benchmarks of the join executors and the engine.
// Custom metrics (calls, inversions, plan costs) are attached with
// b.ReportMetric so `go test -bench=.` regenerates the quantities the
// experiment tables report.
package seco

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"seco/internal/core"
	"seco/internal/cost"
	"seco/internal/engine"
	"seco/internal/join"
	"seco/internal/mart"
	"seco/internal/obs"
	"seco/internal/optimizer"
	"seco/internal/plan"
	"seco/internal/query"
	"seco/internal/service"
	"seco/internal/synth"
	"seco/internal/wsms"
)

func movieRegistry(b *testing.B) *mart.Registry {
	b.Helper()
	reg, err := mart.MovieScenario()
	if err != nil {
		b.Fatal(err)
	}
	return reg
}

func travelRegistry(b *testing.B) *mart.Registry {
	b.Helper()
	reg, err := mart.TravelScenario()
	if err != nil {
		b.Fatal(err)
	}
	return reg
}

// BenchmarkE1_ConfTravelPlan annotates the Fig. 3 plan and reports its
// expected output and request-responses.
func BenchmarkE1_ConfTravelPlan(b *testing.B) {
	reg := travelRegistry(b)
	p, _, err := plan.TravelPlan(reg)
	if err != nil {
		b.Fatal(err)
	}
	var a *plan.Annotated
	for i := 0; i < b.N; i++ {
		a, err = plan.Annotate(p, map[string]int{"F": 2, "H": 2})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(a.Output(), "results")
	b.ReportMetric(a.TotalCalls(), "calls")
}

// BenchmarkE2_RunningExample annotates the Fig. 10 plan; the reported
// metrics are the chapter's instantiation numbers.
func BenchmarkE2_RunningExample(b *testing.B) {
	reg := movieRegistry(b)
	p, _, err := plan.RunningExamplePlan(reg)
	if err != nil {
		b.Fatal(err)
	}
	var a *plan.Annotated
	for i := 0; i < b.N; i++ {
		a, err = plan.Annotate(p, plan.Fig10Fetches())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(a.Ann["MS"].Candidates, "candidates")
	b.ReportMetric(a.Output(), "results")
	b.ReportMetric(a.TotalCalls(), "calls")
}

// BenchmarkE3_TopologyEnum enumerates the Fig. 9 topologies.
func BenchmarkE3_TopologyEnum(b *testing.B) {
	reg := movieRegistry(b)
	q, err := query.RunningExample(reg)
	if err != nil {
		b.Fatal(err)
	}
	var n int
	for i := 0; i < b.N; i++ {
		tops, err := optimizer.EnumerateTopologies(q)
		if err != nil {
			b.Fatal(err)
		}
		n = len(tops)
	}
	b.ReportMetric(float64(n), "topologies")
}

// BenchmarkE4_NLvsMS traces the two Fig. 5 strategies.
func BenchmarkE4_NLvsMS(b *testing.B) {
	for _, s := range []join.Strategy{
		{Invocation: join.NestedLoop, Completion: join.Rectangular, H: 3},
		{Invocation: join.MergeScan, Completion: join.Triangular},
	} {
		b.Run(s.String(), func(b *testing.B) {
			var tiles int
			for i := 0; i < b.N; i++ {
				evs, err := join.Trace(s, 8, 8)
				if err != nil {
					b.Fatal(err)
				}
				tiles = len(join.CollectTiles(evs))
			}
			b.ReportMetric(float64(tiles), "tiles")
		})
	}
}

// benchJoinTables builds the E7 synthetic services.
func benchJoinTables(b *testing.B, xScoring service.Scoring) (*service.Table, *service.Table) {
	b.Helper()
	xs, err := synth.NewRanked(synth.RankedConfig{
		Name: "X", N: 300, KeyMod: 50, Shuffle: true, Seed: 1,
		Stats: service.Stats{AvgCardinality: 300, ChunkSize: 10, Scoring: xScoring},
	})
	if err != nil {
		b.Fatal(err)
	}
	ys, err := synth.NewRanked(synth.RankedConfig{
		Name: "Y", N: 300, KeyMod: 50, Shuffle: true, Seed: 2,
		Stats: service.Stats{AvgCardinality: 300, ChunkSize: 10, Scoring: service.Linear(300)},
	})
	if err != nil {
		b.Fatal(err)
	}
	return xs, ys
}

// benchJoinPair invokes the E7 synthetic services.
func benchJoinPair(b *testing.B, xScoring service.Scoring) (service.Invocation, service.Invocation) {
	b.Helper()
	xs, ys := benchJoinTables(b, xScoring)
	xi, err := xs.Invoke(context.Background(), nil)
	if err != nil {
		b.Fatal(err)
	}
	yi, err := ys.Invoke(context.Background(), nil)
	if err != nil {
		b.Fatal(err)
	}
	return xi, yi
}

// BenchmarkE7_StrategyCrossover measures calls to the k-th join result per
// strategy and scoring shape.
func BenchmarkE7_StrategyCrossover(b *testing.B) {
	const k = 20
	cases := []struct {
		name    string
		scoring service.Scoring
		strat   join.Strategy
	}{
		{"step-h2/nested-loop", service.Step(20, 0.95, 0.05),
			join.Strategy{Invocation: join.NestedLoop, Completion: join.Rectangular, H: 2}},
		{"step-h2/merge-scan", service.Step(20, 0.95, 0.05),
			join.Strategy{Invocation: join.MergeScan, Completion: join.Triangular, FlushOnExhaust: true}},
		{"linear/nested-loop", service.Linear(300),
			join.Strategy{Invocation: join.NestedLoop, Completion: join.Rectangular, H: 2}},
		{"linear/merge-scan", service.Linear(300),
			join.Strategy{Invocation: join.MergeScan, Completion: join.Triangular, FlushOnExhaust: true}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var calls int
			var quality float64
			for i := 0; i < b.N; i++ {
				xi, yi := benchJoinPair(b, c.scoring)
				count, sum := 0, 0.0
				stats, err := join.Parallel(context.Background(), xi, yi, c.strat,
					join.Predicate{Conds: []join.Condition{{Left: "Key", Right: "Key"}}},
					0, 0, func(p join.Pair) error {
						count++
						sum += p.RankProduct()
						if count >= k {
							return join.ErrStop
						}
						return nil
					})
				if err != nil {
					b.Fatal(err)
				}
				calls = stats.TotalFetches()
				if count > 0 {
					quality = sum / float64(count)
				}
			}
			b.ReportMetric(float64(calls), "calls-to-k")
			b.ReportMetric(quality, "rank-quality")
		})
	}
}

// BenchmarkE8_ExtractionOptimality reports the Kendall-tau inversions of
// each completion strategy's emission order.
func BenchmarkE8_ExtractionOptimality(b *testing.B) {
	const n = 8
	tx := make([]float64, n)
	for i := range tx {
		tx[i] = 1 - float64(i)/n
	}
	r := join.TileRanker{TopX: tx, TopY: tx}
	cases := []struct {
		name   string
		strat  join.Strategy
		ranked bool
	}{
		{"ms-rect", join.Strategy{Invocation: join.MergeScan, Completion: join.Rectangular}, false},
		{"ms-tri-geometric", join.Strategy{Invocation: join.MergeScan, Completion: join.Triangular}, false},
		{"ms-tri-ranked", join.Strategy{Invocation: join.MergeScan, Completion: join.Triangular}, true},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var inv int
			for i := 0; i < b.N; i++ {
				var (
					evs []join.Event
					err error
				)
				if c.ranked {
					evs, err = join.TraceRanked(c.strat, n, n, r.Rank)
				} else {
					evs, err = join.Trace(c.strat, n, n)
				}
				if err != nil {
					b.Fatal(err)
				}
				inv = join.Inversions(join.CollectTiles(evs), r)
			}
			b.ReportMetric(float64(inv), "inversions")
		})
	}
}

// BenchmarkE9_Heuristics optimizes the running example under each
// heuristic pair, reporting the first-plan cost (anytime quality).
func BenchmarkE9_Heuristics(b *testing.B) {
	reg := movieRegistry(b)
	for _, th := range []optimizer.TopologyHeuristic{optimizer.SelectiveFirst, optimizer.ParallelIsBetter} {
		for _, fh := range []optimizer.FetchHeuristic{optimizer.Greedy, optimizer.SquareIsBetter} {
			b.Run(fmt.Sprintf("%s/%s", th, fh), func(b *testing.B) {
				var first float64
				for i := 0; i < b.N; i++ {
					q, err := query.RunningExample(reg)
					if err != nil {
						b.Fatal(err)
					}
					res, err := optimizer.Optimize(q, reg, optimizer.Options{
						K: 10, Metric: cost.ExecutionTime{},
						Stats:      plan.RunningExampleStats(),
						Heuristics: optimizer.Heuristics{Topology: th, Fetch: fh},
						MaxPlans:   1,
					})
					if err != nil {
						b.Fatal(err)
					}
					first = res.Cost
				}
				b.ReportMetric(first, "first-plan-cost")
			})
		}
	}
}

// BenchmarkE10_BnBvsExhaustive compares full search against pruning.
func BenchmarkE10_BnBvsExhaustive(b *testing.B) {
	reg := movieRegistry(b)
	for _, pruned := range []bool{false, true} {
		name := "exhaustive"
		if pruned {
			name = "branch-and-bound"
		}
		b.Run(name, func(b *testing.B) {
			var explored int
			for i := 0; i < b.N; i++ {
				q, err := query.RunningExample(reg)
				if err != nil {
					b.Fatal(err)
				}
				res, err := optimizer.Optimize(q, reg, optimizer.Options{
					K: 10, Metric: cost.ExecutionTime{},
					Stats:          plan.RunningExampleStats(),
					Heuristics:     optimizer.Heuristics{Topology: optimizer.ParallelIsBetter},
					DisablePruning: !pruned,
				})
				if err != nil {
					b.Fatal(err)
				}
				explored = res.Explored
			}
			b.ReportMetric(float64(explored), "plans-explored")
		})
	}
}

// BenchmarkE11_WSMSBaseline runs the baseline optimizer on random chains
// and reports the stop-at-k call advantage on the running example.
func BenchmarkE11_WSMSBaseline(b *testing.B) {
	rng := rand.New(rand.NewSource(2009))
	services := make([]wsms.Service, 5)
	for j := range services {
		services[j] = wsms.Service{
			Name:        fmt.Sprintf("s%d", j),
			Cost:        0.1 + rng.Float64()*5,
			Selectivity: 0.1 + rng.Float64()*0.9,
		}
	}
	b.Run("greedy", func(b *testing.B) {
		var bn float64
		for i := 0; i < b.N; i++ {
			arr, err := wsms.GreedyChain(services)
			if err != nil {
				b.Fatal(err)
			}
			bn = arr.Bottleneck
		}
		b.ReportMetric(bn, "bottleneck")
	})
	b.Run("optimal", func(b *testing.B) {
		var bn float64
		for i := 0; i < b.N; i++ {
			arr, err := wsms.OptimalChain(services)
			if err != nil {
				b.Fatal(err)
			}
			bn = arr.Bottleneck
		}
		b.ReportMetric(bn, "bottleneck")
	})
	b.Run("stop-at-k-gap", func(b *testing.B) {
		reg := movieRegistry(b)
		p, _, err := plan.RunningExamplePlan(reg)
		if err != nil {
			b.Fatal(err)
		}
		var ratio float64
		for i := 0; i < b.N; i++ {
			seco, err := plan.Annotate(p, plan.Fig10Fetches())
			if err != nil {
				b.Fatal(err)
			}
			full := p.Clone()
			if n, ok := full.Node("MS"); ok {
				n.Strategy.Completion = join.Rectangular
			}
			all, err := plan.Annotate(full, map[string]int{"M": 10, "T": 10, "R": 1})
			if err != nil {
				b.Fatal(err)
			}
			ratio = all.TotalCalls() / seco.TotalCalls()
		}
		b.ReportMetric(ratio, "call-reduction")
	})
}

// BenchmarkE12_MetricShapes optimizes the running example per metric and
// reports each winner's execution-time cost.
func BenchmarkE12_MetricShapes(b *testing.B) {
	reg := movieRegistry(b)
	for _, m := range cost.All() {
		b.Run(m.Name(), func(b *testing.B) {
			var execTime float64
			for i := 0; i < b.N; i++ {
				q, err := query.RunningExample(reg)
				if err != nil {
					b.Fatal(err)
				}
				res, err := optimizer.Optimize(q, reg, optimizer.Options{
					K: 10, Metric: m, Stats: plan.RunningExampleStats(),
				})
				if err != nil {
					b.Fatal(err)
				}
				execTime = cost.ExecutionTime{}.Cost(res.Annotated)
			}
			b.ReportMetric(execTime, "exec-time-cost")
		})
	}
}

// BenchmarkE13_TopKvsApproximate compares the request-responses of the
// guaranteed rank join — the engine's pull driver on the rank-join plan
// fixture — against the approximate extraction-optimal method stopped at
// the same k (the Section 3.2 trade-off).
func BenchmarkE13_TopKvsApproximate(b *testing.B) {
	const k = 10
	pred := join.Predicate{Conds: []join.Condition{{Left: "Key", Right: "Key"}}}
	b.Run("rank-join-exact", func(b *testing.B) {
		xs, ys := benchJoinTables(b, service.Linear(300))
		a, err := plan.RankedJoinPlan(xs, ys, 1.0/50, k)
		if err != nil {
			b.Fatal(err)
		}
		eng := engine.New(map[string]service.Service{"X": xs, "Y": ys}, nil)
		p, err := eng.Prepare(a, engine.PrepareOptions{Weights: plan.RankedJoinWeights(), TargetK: k})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		var calls int64
		for i := 0; i < b.N; i++ {
			run, err := p.Run(context.Background(), engine.RunOptions{})
			if err != nil {
				b.Fatal(err)
			}
			calls = run.TotalCalls()
		}
		b.ReportMetric(float64(calls), "calls-to-k")
	})
	b.Run("extraction-optimal-approx", func(b *testing.B) {
		var fetches int
		for i := 0; i < b.N; i++ {
			xi, yi := benchJoinPair(b, service.Linear(300))
			count := 0
			stats, err := join.Parallel(context.Background(), xi, yi,
				join.Strategy{Invocation: join.MergeScan, Completion: join.Triangular, FlushOnExhaust: true},
				pred, 0, 0, func(join.Pair) error {
					count++
					if count >= k {
						return join.ErrStop
					}
					return nil
				})
			if err != nil {
				b.Fatal(err)
			}
			fetches = stats.TotalFetches()
		}
		b.ReportMetric(float64(fetches), "calls-to-k")
	})
}

// BenchmarkAblation_Completion isolates the triangular-completion design
// decision: on the Fig. 10 plan, switching the MS join to rectangular
// doubles the candidate pairs the join must process.
func BenchmarkAblation_Completion(b *testing.B) {
	reg := movieRegistry(b)
	base, _, err := plan.RunningExamplePlan(reg)
	if err != nil {
		b.Fatal(err)
	}
	for _, completion := range []join.CompletionKind{join.Triangular, join.Rectangular} {
		b.Run(completion.String(), func(b *testing.B) {
			p := base.Clone()
			n, _ := p.Node("MS")
			n.Strategy.Completion = completion
			var candidates float64
			for i := 0; i < b.N; i++ {
				a, err := plan.Annotate(p, plan.Fig10Fetches())
				if err != nil {
					b.Fatal(err)
				}
				candidates = a.Ann["MS"].Candidates
			}
			b.ReportMetric(candidates, "candidates")
		})
	}
}

// BenchmarkAblation_RankAwareTiles isolates the rank-aware tile selection:
// inversions with and without the observed-rank ordering.
func BenchmarkAblation_RankAwareTiles(b *testing.B) {
	const n = 10
	tx := make([]float64, n)
	for i := range tx {
		tx[i] = 1 - float64(i)/n
	}
	r := join.TileRanker{TopX: tx, TopY: tx}
	strat := join.Strategy{Invocation: join.MergeScan, Completion: join.Triangular}
	for _, ranked := range []bool{false, true} {
		name := "geometric"
		if ranked {
			name = "rank-aware"
		}
		b.Run(name, func(b *testing.B) {
			var inv int
			for i := 0; i < b.N; i++ {
				var (
					evs []join.Event
					err error
				)
				if ranked {
					evs, err = join.TraceRanked(strat, n, n, r.Rank)
				} else {
					evs, err = join.Trace(strat, n, n)
				}
				if err != nil {
					b.Fatal(err)
				}
				inv = join.Inversions(join.CollectTiles(evs), r)
			}
			b.ReportMetric(float64(inv), "inversions")
		})
	}
}

// BenchmarkAblation_CostRatio isolates the cost-driven inter-service
// ratio: joining a slow service (120 ms/call) with a fast one (80 ms),
// the 2:3 clock finishes the k-th result with less elapsed side-time than
// the naive 1:1 alternation (elapsed ≈ max over sides of calls × latency,
// since the sides fetch in parallel).
func BenchmarkAblation_CostRatio(b *testing.B) {
	const k = 20
	latX, latY := 0.120, 0.080
	pred := join.Predicate{Conds: []join.Condition{{Left: "Key", Right: "Key"}}}
	run := func(b *testing.B, rx, ry int) float64 {
		var elapsed float64
		for i := 0; i < b.N; i++ {
			xi, yi := benchJoinPair(b, service.Linear(300))
			count := 0
			stats, err := join.Parallel(context.Background(), xi, yi,
				join.Strategy{Invocation: join.MergeScan, Completion: join.Triangular,
					RatioX: rx, RatioY: ry, FlushOnExhaust: true},
				pred, 0, 0, func(join.Pair) error {
					count++
					if count >= k {
						return join.ErrStop
					}
					return nil
				})
			if err != nil {
				b.Fatal(err)
			}
			tx := float64(stats.FetchesX) * latX
			ty := float64(stats.FetchesY) * latY
			if tx > ty {
				elapsed = tx
			} else {
				elapsed = ty
			}
		}
		return elapsed
	}
	b.Run("ratio-1:1", func(b *testing.B) {
		b.ReportMetric(run(b, 1, 1), "side-time-s")
	})
	b.Run("ratio-cost-driven", func(b *testing.B) {
		rx, ry := join.RatioFromCosts(latX, latY, 4)
		b.ReportMetric(run(b, rx, ry), "side-time-s")
	})
}

// BenchmarkChunkSizeSweep measures how the services' chunk size affects
// the request-responses needed for k join results: coarse chunks transfer
// more tuples per call (fewer calls, more waste), fine chunks pay more
// round trips — the granularity trade-off behind the chapter's
// chunked-service model.
func BenchmarkChunkSizeSweep(b *testing.B) {
	const k = 20
	pred := join.Predicate{Conds: []join.Condition{{Left: "Key", Right: "Key"}}}
	for _, chunk := range []int{5, 10, 25, 50} {
		b.Run(fmt.Sprintf("chunk-%d", chunk), func(b *testing.B) {
			var calls, tuples int
			for i := 0; i < b.N; i++ {
				mk := func(name string, seed int64) service.Invocation {
					tab, err := synth.NewRanked(synth.RankedConfig{
						Name: name, N: 300, KeyMod: 50, Shuffle: true, Seed: seed,
						Stats: service.Stats{AvgCardinality: 300, ChunkSize: chunk,
							Scoring: service.Linear(300)},
					})
					if err != nil {
						b.Fatal(err)
					}
					inv, err := tab.Invoke(context.Background(), nil)
					if err != nil {
						b.Fatal(err)
					}
					return inv
				}
				count := 0
				stats, err := join.Parallel(context.Background(), mk("X", 1), mk("Y", 2),
					join.Strategy{Invocation: join.MergeScan, Completion: join.Triangular, FlushOnExhaust: true},
					pred, 0, 0, func(join.Pair) error {
						count++
						if count >= k {
							return join.ErrStop
						}
						return nil
					})
				if err != nil {
					b.Fatal(err)
				}
				calls = stats.TotalFetches()
				tuples = stats.TotalFetches() * chunk
			}
			b.ReportMetric(float64(calls), "calls-to-k")
			b.ReportMetric(float64(tuples), "tuples-transferred")
		})
	}
}

// BenchmarkExecuteRunningExample measures full end-to-end execution.
func BenchmarkExecuteRunningExample(b *testing.B) {
	sys, inputs, err := core.MovieNight(7)
	if err != nil {
		b.Fatal(err)
	}
	q, err := sys.Parse(query.RunningExampleText)
	if err != nil {
		b.Fatal(err)
	}
	res, err := sys.Plan(q, core.PlanOptions{K: 10})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var calls int64
	for i := 0; i < b.N; i++ {
		run, err := sys.Run(context.Background(), res, core.RunOptions{Inputs: inputs})
		if err != nil {
			b.Fatal(err)
		}
		calls = run.TotalCalls()
	}
	b.ReportMetric(float64(calls), "calls")
}

// BenchmarkParallelJoin measures the tile-driven parallel join executor.
func BenchmarkParallelJoin(b *testing.B) {
	for _, s := range []join.Strategy{
		{Invocation: join.MergeScan, Completion: join.Rectangular},
		{Invocation: join.MergeScan, Completion: join.Triangular},
	} {
		b.Run(s.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				xi, yi := benchJoinPair(b, service.Linear(300))
				_, err := join.Parallel(context.Background(), xi, yi, s,
					join.Predicate{Conds: []join.Condition{{Left: "Key", Right: "Key"}}},
					10, 10, func(join.Pair) error { return nil })
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineSession measures the liquid-query "more results" path.
func BenchmarkEngineSession(b *testing.B) {
	sys, inputs, err := core.MovieNight(7)
	if err != nil {
		b.Fatal(err)
	}
	q, err := sys.Parse(query.RunningExampleText)
	if err != nil {
		b.Fatal(err)
	}
	res, err := sys.Plan(q, core.PlanOptions{K: 5})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, err := sys.Session(res, core.RunOptions{Inputs: inputs})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sess.Next(context.Background()); err != nil {
			b.Fatal(err)
		}
		if _, err := sess.Next(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE15_StreamingVsMaterializing compares the pull-based streaming
// executor (default since the streaming refactor) with the original
// materialize-then-truncate path on the two reference scenarios. The
// "calls" metric is the request-response count per execution and "saved"
// the engine's reported CallsSaved — on movienight with TargetK=5 the
// top-k stopping rule halts well before the annotated fetch budget.
func BenchmarkE15_StreamingVsMaterializing(b *testing.B) {
	type scenario struct {
		name     string
		services map[string]service.Service
		ann      *plan.Annotated
		prep     engine.PrepareOptions
		run      engine.RunOptions
	}
	var scenarios []scenario

	// movienight: the chapter's world sizes with a denser billboard (the
	// acceptance scenario of the streaming executor's equivalence tests).
	movieReg := movieRegistry(b)
	mp, mq, err := plan.RunningExamplePlan(movieReg)
	if err != nil {
		b.Fatal(err)
	}
	movieWorld, err := synth.NewMovieWorld(movieReg, synth.MovieConfig{Seed: 7, TitlesPerTheatre: 16})
	if err != nil {
		b.Fatal(err)
	}
	ma, err := plan.Annotate(mp, plan.Fig10Fetches())
	if err != nil {
		b.Fatal(err)
	}
	scenarios = append(scenarios, scenario{
		name: "movienight", services: movieWorld.Services(), ann: ma,
		prep: engine.PrepareOptions{Weights: mq.Weights, TargetK: 5, Parallelism: 4},
		run:  engine.RunOptions{Inputs: movieWorld.Inputs},
	})

	// conftravel: the Fig. 3 plan (pipes, selections, shared ancestors).
	travelReg := travelRegistry(b)
	tp, tq, err := plan.TravelPlan(travelReg)
	if err != nil {
		b.Fatal(err)
	}
	travelWorld, err := synth.NewTravelWorld(travelReg, synth.TravelConfig{Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	ta, err := plan.Annotate(tp, map[string]int{"F": 2, "H": 2})
	if err != nil {
		b.Fatal(err)
	}
	scenarios = append(scenarios, scenario{
		name: "conftravel", services: travelWorld.Services(), ann: ta,
		prep: engine.PrepareOptions{Weights: tq.Weights, TargetK: 5, Parallelism: 4},
		run:  engine.RunOptions{Inputs: travelWorld.Inputs},
	})

	for _, sc := range scenarios {
		for _, mode := range []struct {
			name        string
			materialize bool
		}{{"streaming", false}, {"materializing", true}} {
			// The engine is built and the plan prepared once per cell; the
			// timed loop is the per-request Run alone.
			b.Run(sc.name+"/"+mode.name, func(b *testing.B) {
				prep := sc.prep
				prep.Materialize = mode.materialize
				p, err := engine.New(sc.services, nil).Prepare(sc.ann, prep)
				if err != nil {
					b.Fatal(err)
				}
				var run *engine.Run
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if run, err = p.Run(context.Background(), sc.run); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(run.TotalCalls()), "calls")
				b.ReportMetric(run.CallsSaved, "saved")
			})
		}
	}
}

// BenchmarkE15_MetricsSnapshot runs the movienight E15 scenario with the
// metrics registry and the call-sharing layer enabled, and reports the
// registry's view of the execution: request-responses, the share layer's
// cache hit rate, and the per-call latency distribution (count-weighted
// p50/p99 across the service aliases). CI appends this snapshot to
// BENCH_operators.json so the operator benchmarks carry their metric
// profile alongside ns/op.
func BenchmarkE15_MetricsSnapshot(b *testing.B) {
	movieReg := movieRegistry(b)
	mp, mq, err := plan.RunningExamplePlan(movieReg)
	if err != nil {
		b.Fatal(err)
	}
	movieWorld, err := synth.NewMovieWorld(movieReg, synth.MovieConfig{Seed: 7, TitlesPerTheatre: 16})
	if err != nil {
		b.Fatal(err)
	}
	ma, err := plan.Annotate(mp, plan.Fig10Fetches())
	if err != nil {
		b.Fatal(err)
	}
	services := movieWorld.Services()
	opts := engine.Options{Inputs: movieWorld.Inputs, Weights: mq.Weights, TargetK: 5, Parallelism: 4}

	reg := obs.NewRegistry()
	e := engine.NewWithConfig(services, engine.Config{Share: true, Metrics: reg})
	var run *engine.Run
	for i := 0; i < b.N; i++ {
		var err error
		run, err = e.Execute(context.Background(), ma, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(run.TotalCalls()), "calls")

	// Cache hit rate over the share layer (keyed by interface name).
	var wire, memo int64
	for _, svc := range services {
		name := svc.Interface().Name
		wire += reg.Counter("seco.share.wire_fetches." + name).Value()
		memo += reg.Counter("seco.share.memo_hits." + name).Value()
	}
	if wire+memo > 0 {
		b.ReportMetric(float64(memo)/float64(wire+memo), "cache-hit-rate")
	}

	// Count-weighted per-call latency quantiles across the alias
	// histograms (virtual-clock charged latency, in milliseconds).
	var p50, p99, n float64
	for alias := range services {
		h := reg.Histogram("seco.invoker.latency_ms."+alias, obs.LatencyBucketsMS)
		c := float64(h.Count())
		if c == 0 {
			continue
		}
		p50 += h.Quantile(0.50) * c
		p99 += h.Quantile(0.99) * c
		n += c
	}
	if n > 0 {
		b.ReportMetric(p50/n, "p50-latency-ms")
		b.ReportMetric(p99/n, "p99-latency-ms")
	}
}

// BenchmarkE15_TracingOverhead runs the movienight E15 scenario with
// observability off (the shipping default) and with a full tracer, so CI
// records the delta alongside the operator benchmarks. The "disabled"
// sub-benchmark is the one held to the <5% regression budget against the
// previous BENCH_operators.json.
func BenchmarkE15_TracingOverhead(b *testing.B) {
	movieReg := movieRegistry(b)
	mp, mq, err := plan.RunningExamplePlan(movieReg)
	if err != nil {
		b.Fatal(err)
	}
	movieWorld, err := synth.NewMovieWorld(movieReg, synth.MovieConfig{Seed: 7, TitlesPerTheatre: 16})
	if err != nil {
		b.Fatal(err)
	}
	ma, err := plan.Annotate(mp, plan.Fig10Fetches())
	if err != nil {
		b.Fatal(err)
	}
	services := movieWorld.Services()
	opts := engine.Options{Inputs: movieWorld.Inputs, Weights: mq.Weights, TargetK: 5, Parallelism: 4}

	b.Run("disabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := engine.New(services, nil).Execute(context.Background(), ma, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("traced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			o := opts
			o.Trace = obs.NewTracer()
			if _, err := engine.New(services, nil).Execute(context.Background(), ma, o); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE17_TriangleMultiwayVsBinary runs the cyclic triangle query
// (EXPERIMENTS.md E17) under the pull driver over the n-ary multi-way
// plan and the best binary join tree, both re-annotated at the full
// fetch budget so the corner-bound stopping rule decides the call
// count. Reported calls are the quantity the acceptance criterion
// bounds (n-ary at least 30% below binary); -benchmem adds the
// multi-way operator's allocation profile.
func BenchmarkE17_TriangleMultiwayVsBinary(b *testing.B) {
	sys, inputs, err := core.Triangle(7)
	if err != nil {
		b.Fatal(err)
	}
	q, err := sys.Parse(query.TriangleExampleText)
	if err != nil {
		b.Fatal(err)
	}
	fullBudget := func(res *optimizer.Result) *optimizer.Result {
		fetches := map[string]int{}
		for _, id := range res.Plan.NodeIDs() {
			n, _ := res.Plan.Node(id)
			if n.Kind == plan.KindService && n.Stats.Chunked() {
				fetches[id] = int((n.Stats.AvgCardinality + float64(n.Stats.ChunkSize) - 1) / float64(n.Stats.ChunkSize))
			}
		}
		a, err := plan.Annotate(res.Plan, fetches)
		if err != nil {
			b.Fatal(err)
		}
		full := *res
		full.Annotated = a
		return &full
	}
	for _, topo := range []struct {
		name    string
		disable bool
	}{{"nary", false}, {"binary-best", true}} {
		res, err := sys.Plan(q, core.PlanOptions{K: 5, DisableMultiway: topo.disable})
		if err != nil {
			b.Fatal(err)
		}
		full := fullBudget(res)
		b.Run(topo.name, func(b *testing.B) {
			var run *engine.Run
			for i := 0; i < b.N; i++ {
				var err error
				run, err = sys.Run(context.Background(), full, core.RunOptions{Inputs: inputs})
				if err != nil {
					b.Fatal(err)
				}
			}
			if len(run.Combinations) < 5 {
				b.Fatalf("only %d combinations", len(run.Combinations))
			}
			b.ReportMetric(float64(run.TotalCalls()), "calls")
			b.ReportMetric(run.CallsSaved, "saved")
		})
	}
}
