// Package serve is the query-serving layer behind cmd/secoserve: a
// long-lived multi-tenant HTTP service over one engine clock, combining
//
//   - POST /query — SecoQL execution with per-request K, deadline and
//     tenant, behind admission control (per-tenant token buckets, a
//     global concurrency gate, and load-shedding tiers that map onto the
//     engine's Budget/Degrade machinery: a saturated server returns
//     certified partial top-k answers, never errors);
//   - the observability surface grown in earlier PRs — /metrics[.txt],
//     /runs/last, /trace/last[.chrome], /debug/pprof/* — on the same
//     cumulative registry the admission and hedging layers feed.
//
// The package (rather than the command) owns the server so the loadgen
// harness can drive the exact HTTP handler in-process against a virtual
// clock: every admission decision, degraded budget and hedge count is
// then a deterministic function of the request schedule.
package serve

import (
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"sync"
	"time"

	"seco/internal/admission"
	"seco/internal/core"
	"seco/internal/engine"
	"seco/internal/fidelity"
	"seco/internal/obs"
	"seco/internal/optimizer"
	"seco/internal/service"
	"seco/internal/types"
)

// maxPlans bounds the plan/engine cache; a new entry past the bound
// evicts the least recently used one.
const maxPlans = 64

// Config assembles a Server.
type Config struct {
	// Scenario selects the built-in world: movienight, conftravel or
	// triangle.
	Scenario string
	// Seed is the world seed.
	Seed int64
	// K is the default requested combinations per query (requests may
	// override it).
	K int
	// Metric names the planning cost metric.
	Metric string
	// Parallelism is the number of upstream combinations a pipe join
	// holds at once per run, the current one included (default 4). Under
	// a clock that waits it is the overlap window: each one not yet
	// reached prepays a single chunk. On the default virtual clock every
	// call is made on demand, and it only sets how far a pipe reads
	// upstream for its bound.
	Parallelism int
	// DisableMultiway restricts planning to binary join trees, never
	// proposing the n-ary multijoin. Plans are cached per toggle state,
	// so flipping it cannot serve a stale topology.
	DisableMultiway bool
	// CacheCalls enables the engines' cross-query call-sharing layer.
	CacheCalls bool
	// Hedge mounts the hedged-call layer on every service lane.
	Hedge bool
	// Admission tunes the admission controller. Its Metrics field is
	// overwritten with the server's registry.
	Admission admission.Config
	// MaxBudget caps the execution budget of any admitted query
	// (0 = bounded by the request deadline alone).
	MaxBudget time.Duration
	// Wrap, when non-nil, decorates each bound service per plan alias
	// before the engine is built — the hook the loadgen harness uses to
	// inject chaos faults. A layer it adds that charges time must be
	// built with Clock, so set Clock too.
	Wrap func(alias string, svc service.Service) service.Service
	// Clock is the engine clock. Nil selects a fresh VirtualClock:
	// fetches complete instantly while charging their published latency
	// to simulated time, which is what makes served load deterministic;
	// engine.WallClock{} paces them live.
	Clock engine.Clock
	// Metrics overrides the registry (default: a fresh one).
	Metrics *obs.Registry
}

// Server is one long-lived serving instance: the scenario system, the
// shared engine clock, the admission controller, a plan/engine cache
// keyed by (query, K, metric), and the last background run's
// introspection state.
type Server struct {
	cfg         Config
	sys         *core.System
	inputs      map[string]types.Value
	defaultText string
	clock       engine.Clock
	reg         *obs.Registry
	adm         *admission.Controller

	inst instruments

	// planMu guards plans and lru only; planning happens outside it.
	// plans holds the resident entries and the ones being built; lru
	// orders the resident ones, most recently used first.
	planMu sync.Mutex
	plans  map[planKey]*planEntry
	lru    list.List

	mu        sync.Mutex
	lastRun   *engine.Run
	lastTrace *obs.Trace
	runs      int64
	failures  int64
}

// planKey identifies a cached plan: the query text and K under the
// planning metric and join-topology toggle in force.
type planKey struct {
	k               int
	metric          string
	disableMultiway bool
	text            string
}

// planEntry is one cached plan with its long-lived engine and the
// program prepared on it. The engine — not just the plan — is cached so
// repeated queries share one Invoker: the sharing layer, the hedging
// trigger histograms and the cumulative metrics all need call history to
// be useful. The Prepared is cached so a hit neither verifies nor
// compiles.
type planEntry struct {
	res  *optimizer.Result
	eng  *engine.Engine
	prep *engine.Prepared

	// ready is closed once the planner has filled the fields above or
	// err; requests that find the entry meanwhile wait on it.
	ready chan struct{}
	err   error
	// elem is the entry's place in the LRU order, nil until it is built.
	elem *list.Element
}

// instruments are the server's own metrics, resolved by name once.
type instruments struct {
	queries, degraded, rejected, http500 *obs.Counter
	hits, misses, evictions              *obs.Counter
	latencyMS                            *obs.Histogram
}

func newInstruments(reg *obs.Registry) instruments {
	return instruments{
		queries:   reg.Counter("seco.serve.queries"),
		degraded:  reg.Counter("seco.serve.degraded_runs"),
		rejected:  reg.Counter("seco.serve.rejected"),
		http500:   reg.Counter("seco.serve.http_500"),
		hits:      reg.Counter("seco.serve.plan_cache.hits"),
		misses:    reg.Counter("seco.serve.plan_cache.misses"),
		evictions: reg.Counter("seco.serve.plan_cache.evictions"),
		latencyMS: reg.Histogram("seco.serve.latency_ms", obs.LatencyBucketsMS),
	}
}

// New builds a server over a built-in scenario.
func New(cfg Config) (*Server, error) {
	sys, inputs, text, err := core.Scenario(cfg.Scenario, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if cfg.K <= 0 {
		cfg.K = 10
	}
	if cfg.Metric == "" {
		cfg.Metric = "request-response"
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = 4
	}
	clock := cfg.Clock
	if clock == nil {
		clock = engine.NewVirtualClock()
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	admCfg := cfg.Admission
	admCfg.Metrics = reg
	s := &Server{
		cfg:         cfg,
		sys:         sys,
		inputs:      inputs,
		defaultText: text,
		clock:       clock,
		reg:         reg,
		adm:         admission.NewController(admCfg, clock),
		inst:        newInstruments(reg),
		plans:       map[planKey]*planEntry{},
	}
	// Warm the canonical entry so construction fails fast on a broken
	// scenario and the background loop's first run needs no planning.
	if _, err := s.entryFor(text, cfg.K); err != nil {
		return nil, err
	}
	return s, nil
}

// Clock exposes the engine clock shared by every engine, the admission
// controller and all resilience timing.
func (s *Server) Clock() engine.Clock { return s.clock }

// Metrics exposes the server's cumulative registry.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Admission exposes the admission controller.
func (s *Server) Admission() *admission.Controller { return s.adm }

// entryFor returns the cached plan, engine and prepared program for
// (text, k) under the server's metric and join-topology toggle. On a miss
// the caller plans, binds and prepares outside the cache lock; requests
// for the same key arriving meanwhile wait for that one build (and count
// as hits), requests for other keys are not held up.
func (s *Server) entryFor(text string, k int) (*planEntry, error) {
	key := planKey{k: k, metric: s.cfg.Metric, disableMultiway: s.cfg.DisableMultiway, text: text}
	s.planMu.Lock()
	e, found := s.plans[key]
	if !found {
		e = &planEntry{ready: make(chan struct{})}
		s.plans[key] = e
	} else if e.elem != nil {
		s.lru.MoveToFront(e.elem)
	}
	s.planMu.Unlock()
	if found {
		s.inst.hits.Add(1)
		<-e.ready
	} else {
		s.inst.misses.Add(1)
		e.err = s.build(e, text, k)
		s.install(key, e)
		close(e.ready)
	}
	if e.err != nil {
		return nil, e.err
	}
	return e, nil
}

// install makes a built entry resident, evicting the least recently used
// one when the cache is full; a failed build is dropped instead, so the
// next request for its key plans again.
func (s *Server) install(key planKey, e *planEntry) {
	s.planMu.Lock()
	defer s.planMu.Unlock()
	if e.err != nil {
		delete(s.plans, key)
		return
	}
	if s.lru.Len() >= maxPlans {
		delete(s.plans, s.lru.Remove(s.lru.Back()).(planKey))
		s.inst.evictions.Add(1)
	}
	e.elem = s.lru.PushFront(key)
}

// build plans the query, binds an engine to the plan (on the server's
// clock, registry and hedging policy, over the services as Wrap decorates
// them) and prepares the plan on it under the options every served run
// shares.
func (s *Server) build(e *planEntry, text string, k int) error {
	q, err := s.sys.Parse(text)
	if err != nil {
		return err
	}
	e.res, err = s.sys.Plan(q, core.PlanOptions{
		K: k, Metric: s.cfg.Metric, DisableMultiway: s.cfg.DisableMultiway,
	})
	if err != nil {
		return err
	}
	ecfg := engine.Config{Clock: s.clock, Share: s.cfg.CacheCalls, Metrics: s.reg}
	if s.cfg.Hedge {
		ecfg.Hedge = &service.HedgePolicy{}
	}
	if e.eng, err = s.sys.Engine(e.res, ecfg, s.cfg.Wrap); err != nil {
		return err
	}
	e.prep, err = e.eng.Prepare(e.res.Annotated, engine.PrepareOptions{
		Weights:     e.res.Query.Weights,
		TargetK:     e.res.Plan.K,
		Parallelism: s.cfg.Parallelism,
		Degrade:     true,
	})
	return err
}

// RunOnce executes the canonical query with a fresh tracer and replaces
// the last-run record; the background loop and tests drive it.
func (s *Server) RunOnce() error {
	e, err := s.entryFor(s.defaultText, s.cfg.K)
	if err != nil {
		return err
	}
	tr := obs.NewTracer()
	// The refresh run is bounded like any admitted query, so a wedged
	// service cannot stall the background loop; the cap is wall time and
	// never fires under the virtual clock's instant runs.
	limit := s.cfg.MaxBudget
	if limit <= 0 {
		limit = time.Minute
	}
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	// Fidelity is always scored on the refresh run: it is one cheap
	// assessment per run and the /fidelity/last surface is how an
	// operator notices the scenario statistics drifting from the data.
	// The run uses the program /query serves, so a failing service shows
	// up as a degraded run on /runs/last rather than as a failure.
	run, err := e.prep.Run(ctx, engine.RunOptions{Inputs: s.inputs, Trace: tr, Fidelity: true})
	s.mu.Lock()
	defer s.mu.Unlock()
	s.runs++
	if err != nil {
		s.failures++
		return err
	}
	s.lastRun = run
	s.lastTrace = tr.Snapshot()
	return nil
}

// Loop drives the background executions. A zero interval runs the query
// once, so the endpoints have data without generating steady load.
func (s *Server) Loop(ctx context.Context, interval time.Duration) {
	if err := s.RunOnce(); err != nil {
		fmt.Fprintln(os.Stderr, "secoserve: run:", err)
	}
	if interval <= 0 {
		return
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			if err := s.RunOnce(); err != nil {
				fmt.Fprintln(os.Stderr, "secoserve: run:", err)
			}
		}
	}
}

// Handler builds the server's mux. The pprof handlers are registered
// explicitly (not via the net/http/pprof DefaultServeMux side effect),
// so tests and the loadgen harness can mount the whole surface without a
// listener.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/metrics", s.handleMetricsJSON)
	mux.HandleFunc("/metrics.txt", s.handleMetricsText)
	mux.HandleFunc("/runs/last", s.handleLastRun)
	mux.HandleFunc("/fidelity/last", s.handleLastFidelity)
	mux.HandleFunc("/fidelity/last.txt", s.handleLastFidelityText)
	mux.HandleFunc("/trace/last", s.handleLastTrace)
	mux.HandleFunc("/trace/last.chrome", s.handleLastTraceChrome)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *Server) handleMetricsJSON(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := s.reg.WriteJSON(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleMetricsText(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, s.reg.Text())
}

// lastRunRecord is the /runs/last introspection payload.
type lastRunRecord struct {
	Runs         int64                              `json:"runs"`
	Failures     int64                              `json:"failures"`
	Combinations int                                `json:"combinations"`
	TopScore     float64                            `json:"top_score,omitempty"`
	Halted       bool                               `json:"halted"`
	ElapsedMS    float64                            `json:"elapsed_ms"`
	Calls        map[string]int64                   `json:"calls"`
	Invocations  map[string]int64                   `json:"invocations"`
	Produced     map[string]int                     `json:"produced"`
	CallsSaved   float64                            `json:"calls_saved"`
	Degraded     *engine.Degradation                `json:"degraded,omitempty"`
	Resilience   map[string]service.ResilienceStats `json:"resilience,omitempty"`
	Fidelity     *fidelity.Report                   `json:"fidelity,omitempty"`
}

func (s *Server) handleLastRun(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	run := s.lastRun
	runs, failures := s.runs, s.failures
	s.mu.Unlock()
	if run == nil {
		http.Error(w, "no run yet", http.StatusServiceUnavailable)
		return
	}
	rec := lastRunRecord{
		Runs:         runs,
		Failures:     failures,
		Combinations: len(run.Combinations),
		Halted:       run.Halted,
		ElapsedMS:    float64(run.Elapsed) / float64(time.Millisecond),
		Calls:        run.Calls,
		Invocations:  run.Invocations,
		Produced:     run.Produced,
		CallsSaved:   run.CallsSaved,
		Degraded:     run.Degraded,
		Resilience:   run.Resilience,
		Fidelity:     run.Fidelity,
	}
	if len(run.Combinations) > 0 {
		rec.TopScore = run.Combinations[0].Score
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rec); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) lastFidelity() *fidelity.Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lastRun == nil {
		return nil
	}
	return s.lastRun.Fidelity
}

func (s *Server) handleLastFidelity(w http.ResponseWriter, _ *http.Request) {
	rep := s.lastFidelity()
	if rep == nil {
		http.Error(w, "no fidelity report yet", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handleLastFidelityText renders the report as the same fixed-width
// table Report.Text produces everywhere else, so a curl against a
// virtual-clock server is byte-deterministic.
func (s *Server) handleLastFidelityText(w http.ResponseWriter, _ *http.Request) {
	rep := s.lastFidelity()
	if rep == nil {
		http.Error(w, "no fidelity report yet", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, rep.Text())
}

func (s *Server) lastTraceSnapshot() *obs.Trace {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastTrace
}

func (s *Server) handleLastTrace(w http.ResponseWriter, _ *http.Request) {
	tr := s.lastTraceSnapshot()
	if tr == nil {
		http.Error(w, "no trace yet", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := tr.WriteJSON(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleLastTraceChrome(w http.ResponseWriter, _ *http.Request) {
	tr := s.lastTraceSnapshot()
	if tr == nil {
		http.Error(w, "no trace yet", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := tr.WriteChrome(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
