package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"seco/internal/admission"
	"seco/internal/core"
	"seco/internal/engine"
	"seco/internal/obs"
	"seco/internal/optimizer"
	"seco/internal/serve"
	"seco/internal/service"
	"seco/internal/types"
)

// perLayerMetrics is the per-layer table of the traced pass, grouped by
// the module each figure belongs to. None has a bound: they explain a
// movement in an end-to-end metric, they do not gate a change.
var perLayerMetrics = []metricDef{
	{name: "serve.handler_us_p50", unit: "us", better: "lower"},
	{name: "serve.overhead_us", unit: "us", better: "lower"},
	{name: "serve.plan_cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "serve.plan_cache_evictions_per_kreq", unit: "count", better: "lower"},
	{name: "serve.resp_bytes_p50", unit: "B", better: "lower"},
	{name: "nethttp.transport_us_p50", unit: "us", better: "lower"},
	{name: "admission.admit_us", unit: "us", better: "lower"},
	{name: "admission.degraded_share", unit: "ratio", better: "lower"},
	{name: "admission.rejected_share", unit: "ratio", better: "lower"},
	{name: "query.parse_us", unit: "us", better: "lower"},
	{name: "optimizer.plan_us", unit: "us", better: "lower"},
	{name: "optimizer.explored", unit: "count", better: "lower"},
	{name: "optimizer.pruned", unit: "count", better: "higher"},
	{name: "optimizer.plan_share", unit: "ratio", better: "lower"},
	{name: "plancheck.validate_us", unit: "us", better: "lower"},
	{name: "engine.new_us", unit: "us", better: "lower"},
	{name: "engine.execute_us_p50", unit: "us", better: "lower"},
	{name: "engine.self_us", unit: "us", better: "lower"},
	{name: "engine.sim_elapsed_ms", unit: "ms", better: "lower"},
	{name: "engine.calls", unit: "count", better: "lower"},
	{name: "engine.calls_saved", unit: "count", better: "higher"},
	{name: "engine.halted_share", unit: "ratio", better: "higher"},
	{name: "engine.tuples_per_result", unit: "count", better: "lower"},
	{name: "engine.allocs_per_run", unit: "count", better: "lower"},
	{name: "engine.bytes_per_run", unit: "B", better: "lower"},
	{name: "service.wire_us_per_req", unit: "us", better: "lower"},
	{name: "service.wire_calls_per_req", unit: "count", better: "lower"},
	{name: "service.share_hit_ratio", unit: "ratio", better: "higher"},
	{name: "service.dedup_joins_per_kreq", unit: "count", better: "higher"},
	{name: "service.invoker_us_per_fetch", unit: "us", better: "lower"},
	{name: "service.hedge_attempts_per_kreq", unit: "count", better: "lower"},
	{name: "bench.trace_overhead_pct", unit: "%", better: "lower"},
}

// spansPerSecond sizes the span buffer from -seconds: a quarter of the
// run is traced serving and a quarter replay, and the deep workload
// records some 70 000 spans in each second of either.
const spansPerSecond = 40000

// runPerLayer is the traced run of one workload, one client throughout:
// an untraced pass (the base of the tracing overhead), a traced pass whose
// spans and server counters give the serving-side figures, and a staged
// replay of the same requests through the public functions of each layer.
// Each takes a quarter of seconds. None of it feeds an end-to-end metric.
func runPerLayer(w *workload, seed int64, seconds float64, spansPath string) (*result, error) {
	o, err := newOracle(w)
	if err != nil {
		return nil, err
	}
	warm, slice, n := passShape(seconds / 4)
	rec := newRecorder(int(seconds * spansPerSecond))
	servePass := func(rec *recorder) (*pass, error) {
		in, _, err := setup(w, o, rec)
		if err != nil {
			return nil, err
		}
		p, err := in.measure(w, seed, o, 1, warm, slice, n)
		return p, errors.Join(err, in.close())
	}
	base, err := servePass(nil)
	if err != nil {
		return nil, err
	}
	traced, err := servePass(rec)
	if err != nil {
		return nil, err
	}
	if traced.correct() == 0 || base.correct() == 0 {
		return nil, fmt.Errorf("no correct response in a traced-run window (first failure: %v)",
			errors.Join(base.firstFailure, traced.firstFailure))
	}
	rp, err := replay(w, seed, o, rec, time.Duration(seconds/4*float64(time.Second)))
	if err != nil {
		return nil, err
	}
	if spansPath != "" {
		if err := rec.writeJSON(spansPath); err != nil {
			return nil, err
		}
	}

	// Serving side: spans of the requests that ran wholly inside the
	// traced window.
	var handlerUS, transportUS []float64
	var wireNS, wireFetches, requests float64
	for _, g := range groupByRequest(rec.recorded(), kindClient) {
		if g.handler == nil || g.root.Start < traced.from || g.root.End > traced.to {
			continue
		}
		requests++
		handlerUS = append(handlerUS, float64(g.handler.dur())/1e3)
		transportUS = append(transportUS, float64(selfTime(g.root, []span{*g.handler}))/1e3)
		for _, s := range g.wire {
			wireNS += float64(s.dur())
			if s.Kind == kindWireFetch {
				wireFetches++
			}
		}
	}
	sort.Float64s(handlerUS)
	sort.Float64s(transportUS)
	handlerP50 := percentile(handlerUS, 0.5)

	c := traced.counters
	reqs := float64(traced.correct())
	hits, misses := float64(c["seco.serve.plan_cache.hits"]), float64(c["seco.serve.plan_cache.misses"])
	memo := float64(sumPrefix(c, "seco.share.memo_hits."))
	dedup := float64(sumPrefix(c, "seco.share.dedup_joins."))
	shareWire := float64(sumPrefix(c, "seco.share.wire_fetches."))
	coldUS := rp.parseUS + rp.planUS + rp.newUS
	baseRPS := base.over(func(s sliceStats) float64 { return s.rps })
	tracedRPS := traced.over(func(s sliceStats) float64 { return s.rps })

	return &result{
		attempted: base.attempted + traced.attempted, failed: base.failed + traced.failed,
		firstFailure: errors.Join(base.firstFailure, traced.firstFailure),
		values: map[string]float64{
			"serve.handler_us_p50":                handlerP50,
			"serve.overhead_us":                   rp.handlerP50US - rp.executeP50US,
			"serve.plan_cache_hit_ratio":          ratio(hits, hits+misses),
			"serve.plan_cache_evictions_per_kreq": 1000 * ratio(float64(c["seco.serve.plan_cache.evictions"]), reqs),
			"serve.resp_bytes_p50":                percentile(traced.respBytes, 0.5),
			"nethttp.transport_us_p50":            percentile(transportUS, 0.5),
			"admission.admit_us":                  rp.admitUS,
			"admission.degraded_share":            ratio(float64(c["seco.admission.degraded"]), reqs),
			"admission.rejected_share":            ratio(float64(sumPrefix(c, "seco.admission.rejected.")), reqs),
			"query.parse_us":                      rp.parseUS,
			"optimizer.plan_us":                   rp.planUS,
			"optimizer.explored":                  rp.explored,
			"optimizer.pruned":                    rp.pruned,
			"optimizer.plan_share":                ratio(ratio(misses, hits+misses)*coldUS, mean(handlerUS)),
			"plancheck.validate_us":               rp.validateUS,
			"engine.new_us":                       rp.newUS,
			"engine.execute_us_p50":               rp.executeP50US,
			"engine.self_us":                      rp.selfUS,
			"engine.sim_elapsed_ms":               rp.simElapsedMS,
			"engine.calls":                        rp.calls,
			"engine.calls_saved":                  rp.callsSaved,
			"engine.halted_share":                 ratio(float64(c["seco.engine.halted"]), float64(c["seco.engine.runs.pull"])),
			"engine.tuples_per_result":            rp.tuplesPerResult,
			"engine.allocs_per_run":               rp.allocsPerRun,
			"engine.bytes_per_run":                rp.bytesPerRun,
			"service.wire_us_per_req":             ratio(wireNS/1e3, requests),
			"service.wire_calls_per_req":          ratio(wireFetches, requests),
			"service.share_hit_ratio":             ratio(memo, memo+dedup+shareWire),
			"service.dedup_joins_per_kreq":        1000 * ratio(dedup, reqs),
			"service.invoker_us_per_fetch":        rp.invokerUSPerFetch,
			"service.hedge_attempts_per_kreq":     1000 * ratio(float64(sumPrefix(c, "seco.hedge.attempts.")), reqs),
			"bench.trace_overhead_pct":            100 * ratio(baseRPS-tracedRPS, baseRPS),
		},
		notes: map[string]string{
			"serve.handler_us_p50":     fmt.Sprintf("%d traced requests", len(handlerUS)),
			"serve.overhead_us":        "replayed in-process handler p50 − execute p50: the plan-cache-hit path, so planning is not in it",
			"optimizer.plan_share":     "miss ratio × (parse + plan + engine build) ÷ mean handler time",
			"engine.execute_us_p50":    fmt.Sprintf("%d replayed runs", rp.runs),
			"engine.self_us":           "execute − time covered by wire calls − validate, median run",
			"bench.trace_overhead_pct": fmt.Sprintf("%.5g untraced vs %.5g traced requests/s, one client", baseRPS, tracedRPS),
		},
	}, nil
}

// replayStats is what the staged replay measures, per layer.
type replayStats struct {
	runs                               int
	parseUS, planUS, newUS             float64 // medians over every planned class and repetition
	explored, pruned                   float64 // means per optimization
	validateUS                         float64 // median Execute − median Execute with SkipValidate
	executeP50US, selfUS               float64
	handlerP50US                       float64 // srv.Handler() called in-process on the same requests
	simElapsedMS, calls, callsSaved    float64 // means per run
	tuplesPerResult                    float64
	allocsPerRun, bytesPerRun, admitUS float64
	invokerUSPerFetch                  float64
}

const (
	// replayRequests is how many requests of client 0's sequence the
	// replay walks; the walk repeats until its time is spent.
	replayRequests = 256
	// replayPlans caps the distinct (query, k) classes planned and built;
	// requests of further classes are skipped.
	replayPlans = 24
	// planRounds is how often each class is parsed, planned and built.
	planRounds = 3
	// admitRounds is how many admit/release pairs are timed.
	admitRounds = 20000
	// invokerRounds × captured bindings invocations are timed, each
	// fetching at most invokerDepth chunks.
	invokerRounds = 20
	invokerDepth  = 2
	// capturedPerAlias bounds the distinct input bindings kept per alias.
	capturedPerAlias = 8
)

// replayEntry is one planned class with its engine, as the server's plan
// cache would hold it.
type replayEntry struct {
	res *optimizer.Result
	eng *engine.Engine
}

// replayRequest is a generated request decoded back to what the server
// would execute.
type replayRequest struct {
	entry  *replayEntry
	inputs map[string]types.Value
	body   []byte
	class  int
}

// replayer walks one client's request sequence through the public
// functions the serving path calls, on a system of its own, timing each
// stage apart. Its services are wrapped in the same wire timer as the
// traced server's, so a run's wire time can be taken out of its execute
// time.
type replayer struct {
	w     *workload
	o     *oracle
	rec   *recorder
	ctx   context.Context
	clock *engine.VirtualClock
	reg   *obs.Registry
	wires *wireSet
	scfg  serve.Config

	reqs    []replayRequest
	handler http.Handler // a server's own, called without a socket

	capturing atomic.Bool
	capMu     sync.Mutex
	captured  map[string]map[string]service.Input // alias → distinct bindings invoked

	st replayStats
}

// replay runs the four stages within budget of execution time.
func replay(w *workload, seed int64, o *oracle, rec *recorder, budget time.Duration) (*replayStats, error) {
	r := &replayer{
		w: w, o: o, rec: rec, ctx: context.Background(),
		clock: engine.NewVirtualClock(), reg: obs.NewRegistry(), wires: newWireSet(rec),
		scfg: serveConfig(w), captured: map[string]map[string]service.Input{},
	}
	r.wires.capture = r.capture
	r.scfg.Wrap = r.wires.wrap
	for _, stage := range []func() error{
		func() error { return r.planStage(seed) },
		func() error { return r.executeStage(budget) },
		r.admissionStage,
		r.invokerStage,
	} {
		if err := stage(); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
	}
	return &r.st, nil
}

// capture keeps the first few distinct bindings each alias is invoked
// with, while capturing is set.
func (r *replayer) capture(alias string, in service.Input) {
	if !r.capturing.Load() {
		return
	}
	r.capMu.Lock()
	defer r.capMu.Unlock()
	if r.captured[alias] == nil {
		r.captured[alias] = map[string]service.Input{}
	}
	if len(r.captured[alias]) < capturedPerAlias {
		r.captured[alias][fmt.Sprint(in)] = in.Clone()
	}
}

// planStage decodes the sequence and, for every distinct (query, k) in
// order of first appearance, times Parse, Plan and the engine build.
func (r *replayer) planStage(seed int64) error {
	sys, canonical, err := buildSystem(r.w.scenario)
	if err != nil {
		return err
	}
	gen := r.w.newGen(r.w, seed, 0)
	entries := map[string]*replayEntry{}
	var (
		parses, plans, builds  []float64
		explored, pruned, opts float64
	)
	for i := 0; i < replayRequests; i++ {
		gr := gen()
		var wr wireRequest
		if err := json.Unmarshal(gr.body, &wr); err != nil {
			return fmt.Errorf("generated request: %w", err)
		}
		key := fmt.Sprintf("%d|%s", wr.K, wr.Query)
		entry, ok := entries[key]
		if !ok {
			if len(entries) == replayPlans {
				continue
			}
			for round := 0; round < planRounds; round++ {
				t0 := wall.Now()
				q, err := sys.Parse(wr.Query)
				if err != nil {
					return err
				}
				t1 := wall.Now()
				res, err := sys.Plan(q, core.PlanOptions{K: wr.K})
				if err != nil {
					return err
				}
				t2 := wall.Now()
				eng, err := r.buildEngine(sys, res)
				if err != nil {
					return err
				}
				t3 := wall.Now()
				parses = append(parses, float64(t1.Sub(t0))/1e3)
				plans = append(plans, float64(t2.Sub(t1))/1e3)
				builds = append(builds, float64(t3.Sub(t2))/1e3)
				explored += float64(res.Explored)
				pruned += float64(res.Pruned)
				opts++
				entry = &replayEntry{res: res, eng: eng}
			}
			entries[key] = entry
		}
		r.reqs = append(r.reqs, replayRequest{
			entry: entry, inputs: bindInputs(canonical, wr.Inputs), body: gr.body, class: gr.class,
		})
	}
	r.st.parseUS, r.st.planUS, r.st.newUS = median(parses), median(plans), median(builds)
	r.st.explored, r.st.pruned = ratio(explored, opts), ratio(pruned, opts)
	return nil
}

// buildEngine binds a plan's aliases the way serve.engineFor does:
// wrapped services, shared clock and registry, hedging mounted.
func (r *replayer) buildEngine(sys *core.System, res *optimizer.Result) (*engine.Engine, error) {
	byAlias := map[string]service.Service{}
	for _, ref := range res.Query.Services {
		svc, ok := sys.Service(ref.Interface.Name)
		if !ok {
			return nil, fmt.Errorf("no service bound for interface %q (alias %s)", ref.Interface.Name, ref.Alias)
		}
		byAlias[ref.Alias] = r.wires.wrap(ref.Alias, svc)
	}
	return engine.NewWithConfig(byAlias, engine.Config{
		Clock: r.clock, Share: r.w.share, Metrics: r.reg, Hedge: &service.HedgePolicy{},
	}), nil
}

// execTally accumulates the execute stage's timed calls.
type execTally struct {
	validated, skipped, handled []float64 // us per call
	runs                        float64
	objects, bytes              uint64
	simMS, calls, callsSaved    float64
	produced, results           float64
}

// execute is Engine.Execute with the options handleQuery builds.
func (r *replayer) execute(ctx context.Context, req replayRequest, skipValidate bool) (*engine.Run, error) {
	return req.entry.eng.Execute(ctx, req.entry.res.Annotated, engine.Options{
		Inputs:       req.inputs,
		Weights:      req.entry.res.Query.Weights,
		TargetK:      req.entry.res.Plan.K,
		Parallelism:  r.scfg.Parallelism,
		Budget:       time.Hour,
		Degrade:      true,
		BudgetReason: engine.DegradeDeadline,
		SkipValidate: skipValidate,
	})
}

// timedExecute is the validated run: spanned, so its wire time can be
// taken out, and checked against the oracle.
func (r *replayer) timedExecute(t *execTally, req replayRequest) error {
	id := r.rec.newID()
	o0, b0 := heapAllocs()
	start := r.rec.now()
	run, err := r.execute(withSpan(r.ctx, spanRef{req: id, parent: id}), req, false)
	end := r.rec.now()
	o1, b1 := heapAllocs()
	if err != nil {
		return err
	}
	if run.Degraded != nil {
		return fmt.Errorf("degraded run: %+v", run.Degraded)
	}
	scores := make([]float64, len(run.Combinations))
	for i, comb := range run.Combinations {
		scores[i] = comb.Score
	}
	if err := r.o.checkScores(req.class, scores, len(scores)); err != nil {
		return err
	}
	r.rec.add(span{ID: id, Req: id, Kind: kindReplayExecute, Start: start, End: end})
	t.validated = append(t.validated, float64(end-start)/1e3)
	t.objects += o1 - o0
	t.bytes += b1 - b0
	t.runs++
	t.simMS += float64(run.Elapsed) / 1e6
	t.calls += float64(run.TotalCalls())
	t.callsSaved += run.CallsSaved
	t.results += float64(len(run.Combinations))
	for _, n := range run.Produced {
		t.produced += float64(n)
	}
	return nil
}

func (r *replayer) timedSkip(t *execTally, req replayRequest) error {
	t0 := wall.Now()
	_, err := r.execute(r.ctx, req, true)
	t.skipped = append(t.skipped, float64(wall.Now().Sub(t0))/1e3)
	return err
}

func (r *replayer) timedHandler(t *execTally, req replayRequest) error {
	hreq := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(req.body))
	resp := httptest.NewRecorder()
	t0 := wall.Now()
	r.handler.ServeHTTP(resp, hreq)
	t.handled = append(t.handled, float64(wall.Now().Sub(t0))/1e3)
	return r.o.check(req.class, resp.Code, resp.Body.Bytes())
}

// executeStage makes three timed calls per request: Execute as the
// handler calls it, Execute with SkipValidate, and a server's own handler
// in-process, which adds decode, admission, plan-cache lookup,
// materialise and encode around the same Execute. All three run under one
// heap and one schedule, so their differences are the layers' and not the
// conditions'.
func (r *replayer) executeStage(budget time.Duration) error {
	srv, err := serve.New(r.scfg)
	if err != nil {
		return err
	}
	r.handler = srv.Handler()
	calls := []func(*execTally, replayRequest) error{r.timedExecute, r.timedSkip, r.timedHandler}

	// The first walk is discarded, and recorded nowhere (the recorder is
	// off): it fills the Share memos and the server's plan cache as a
	// warm-up does, and captures the bindings each alias is invoked with.
	warm := &execTally{}
	r.capturing.Store(true)
	for _, req := range r.reqs {
		for _, call := range calls {
			if err := call(warm, req); err != nil {
				return err
			}
		}
	}
	r.capturing.Store(false)

	t := &execTally{}
	r.rec.on.Store(true)
	deadline := wall.Now().Add(budget)
	for i := 0; wall.Now().Before(deadline); i++ {
		// The order rotates, so no call always runs on the caches another
		// just warmed.
		for j := range calls {
			if err := calls[(i+j)%len(calls)](t, r.reqs[i%len(r.reqs)]); err != nil {
				return err
			}
		}
	}
	r.rec.on.Store(false)
	if t.runs == 0 {
		return errors.New("no run fitted the time budget")
	}

	st := &r.st
	st.runs = int(t.runs)
	sort.Float64s(t.validated)
	sort.Float64s(t.handled)
	st.executeP50US, st.handlerP50US = percentile(t.validated, 0.5), percentile(t.handled, 0.5)
	st.validateUS = st.executeP50US - median(t.skipped)
	st.simElapsedMS, st.calls, st.callsSaved = t.simMS/t.runs, t.calls/t.runs, t.callsSaved/t.runs
	st.tuplesPerResult = ratio(t.produced, t.results)
	st.allocsPerRun, st.bytesPerRun = float64(t.objects)/t.runs, float64(t.bytes)/t.runs
	var selfs []float64
	for _, g := range groupByRequest(r.rec.recorded(), kindReplayExecute) {
		selfs = append(selfs, float64(selfTime(g.root, g.wire))/1e3)
	}
	st.selfUS = median(selfs) - st.validateUS
	return nil
}

// admissionStage times the server's controller configuration on the same
// kind of clock, one admit/release pair at a time.
func (r *replayer) admissionStage() error {
	cfg := r.scfg.Admission
	cfg.Metrics = r.reg
	ctrl := admission.NewController(cfg, r.clock)
	t0 := wall.Now()
	for i := 0; i < admitRounds; i++ {
		dec, release := ctrl.Admit(admission.Request{Deadline: time.Hour})
		release()
		if dec.Tier != admission.TierAdmit {
			return fmt.Errorf("admission tier %s", dec.Tier)
		}
	}
	r.st.admitUS = float64(wall.Now().Sub(t0)) / 1e3 / admitRounds
	return nil
}

// invokerStage times the first class's engine's per-run counter over each
// alias's lane (counter → hedge → share → service), on the bindings the
// runs used. What the wire timer saw beneath is taken out, so the figure
// is the stack's own time per fetch.
func (r *replayer) invokerStage() error {
	eng := r.reqs[0].entry.eng
	var laneNS, fetches float64
	wire0 := r.wires.totalNS()
	for round := 0; round < invokerRounds; round++ {
		for alias, bindings := range r.captured {
			lane := eng.Invoker().NewRun().Counter(alias)
			if lane == nil {
				continue
			}
			for _, in := range bindings {
				t0 := wall.Now()
				inv, err := lane.Invoke(r.ctx, in)
				if err != nil {
					return fmt.Errorf("invoke %s: %w", alias, err)
				}
				for d := 0; d < invokerDepth; d++ {
					if _, err := inv.Fetch(r.ctx); err != nil {
						if errors.Is(err, service.ErrExhausted) {
							break
						}
						return fmt.Errorf("fetch %s: %w", alias, err)
					}
					fetches++
				}
				laneNS += float64(wall.Now().Sub(t0))
			}
		}
	}
	r.st.invokerUSPerFetch = ratio((laneNS-float64(r.wires.totalNS()-wire0))/1e3, fetches)
	return nil
}
