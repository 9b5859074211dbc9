// Command loadgen is the deterministic overload harness for the serving
// layer: it drives the internal/serve HTTP handler in-process on a
// virtual clock with an open-loop arrival schedule, sweeping offered
// load across multiples of the measured saturation point, and reports
// per-point latency percentiles and goodput.
//
// Arrivals are scheduled open-loop (request i arrives at i×S/mult on the
// simulated timeline, whether or not the server has caught up) while
// execution is serialized: the driver stamps each request's accumulated
// ingress lag in X-Seco-Queued-Ns, which is exactly the signal the
// admission controller sheds on. Because the engine charges service
// latency to the same virtual clock, an entire sweep runs in
// milliseconds of wall time and — past saturation — shows the admission
// tiers doing their job: goodput plateaus instead of collapsing, p99
// stays bounded by the deadline, and no request ever yields a 500
// (overload answers are certified partials and 429s, not errors).
//
// Usage:
//
//	loadgen -scenario movienight -requests 150 -mults 0.5,1,2,4
//	loadgen -json            # machine-readable report
//	loadgen -assert          # exit non-zero unless the overload
//	                         # invariants hold at every load point
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"seco/internal/admission"
	"seco/internal/chaos"
	"seco/internal/engine"
	"seco/internal/obs"
	"seco/internal/serve"
	"seco/internal/service"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// sweepConfig is the parsed flag set.
type sweepConfig struct {
	scenario     string
	seed         int64
	k            int
	requests     int
	mults        []float64
	deadlineMult float64
	chaos        bool
	hedge        bool
	asJSON       bool
	assert       bool
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	var (
		scenario     = fs.String("scenario", "movienight", "movienight or conftravel")
		seed         = fs.Int64("seed", 7, "world and fault-schedule seed")
		k            = fs.Int("k", 10, "requested combinations per query")
		requests     = fs.Int("requests", 150, "requests per load point")
		mults        = fs.String("mults", "0.5,1,2,4", "offered-load multiples of the saturation point")
		deadlineMult = fs.Float64("deadline-mult", 3, "per-request deadline as a multiple of the calibrated service time")
		withChaos    = fs.Bool("chaos", true, "inject latency spikes and transient faults")
		hedge        = fs.Bool("hedge", true, "mount the hedged-call layer")
		asJSON       = fs.Bool("json", false, "emit the report as JSON")
		assert       = fs.Bool("assert", false, "fail unless the overload invariants hold")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := sweepConfig{
		scenario: *scenario, seed: *seed, k: *k, requests: *requests,
		deadlineMult: *deadlineMult, chaos: *withChaos, hedge: *hedge,
		asJSON: *asJSON, assert: *assert,
	}
	for _, f := range strings.Split(*mults, ",") {
		m, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || m <= 0 {
			return fmt.Errorf("bad -mults entry %q", f)
		}
		cfg.mults = append(cfg.mults, m)
	}

	report, err := sweep(cfg)
	if err != nil {
		return err
	}
	if cfg.asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			return err
		}
	} else {
		writeTable(out, report)
	}
	if cfg.assert {
		if problems := report.check(); len(problems) > 0 {
			return fmt.Errorf("overload invariants violated:\n  %s", strings.Join(problems, "\n  "))
		}
		if !cfg.asJSON {
			fmt.Fprintln(out, "loadgen: overload invariants hold")
		}
	}
	return nil
}

// report is the whole sweep's outcome.
type report struct {
	Scenario      string  `json:"scenario"`
	Seed          int64   `json:"seed"`
	Requests      int     `json:"requests_per_point"`
	ServiceTimeMS float64 `json:"service_time_ms"`
	DeadlineMS    float64 `json:"deadline_ms"`
	Points        []point `json:"points"`
}

// point is one load point's aggregate.
type point struct {
	Mult      float64 `json:"mult"`
	OfferedPS float64 `json:"offered_per_sec"`
	Requests  int     `json:"requests"`
	Full      int     `json:"full"`     // 200, no degradation
	Degraded  int     `json:"degraded"` // 200, certified partial
	Rejected  int     `json:"rejected"` // 429
	Errors    int     `json:"errors"`   // 500 (must be zero)
	Late      int     `json:"late"`     // 200 past deadline + probe-granularity slack
	P50MS     float64 `json:"p50_ms"`
	P99MS     float64 `json:"p99_ms"`
	GoodputPS float64 `json:"goodput_per_sec"`
	Hedges    int64   `json:"hedges"`
	HedgeWins int64   `json:"hedge_wins"`
}

// good counts within-deadline successes: full answers plus certified
// partials.
func (p point) good() int { return p.Full + p.Degraded - p.Late }

// sweep calibrates the per-request service time at zero load, then runs
// each offered-load multiple on a fresh server instance.
func sweep(cfg sweepConfig) (*report, error) {
	svcTime, err := calibrate(cfg)
	if err != nil {
		return nil, err
	}
	rep := &report{
		Scenario:      cfg.scenario,
		Seed:          cfg.seed,
		Requests:      cfg.requests,
		ServiceTimeMS: float64(svcTime) / float64(time.Millisecond),
		DeadlineMS:    cfg.deadlineMult * float64(svcTime) / float64(time.Millisecond),
	}
	for _, mult := range cfg.mults {
		pt, err := runPoint(cfg, svcTime, mult)
		if err != nil {
			return nil, err
		}
		rep.Points = append(rep.Points, pt)
	}
	return rep, nil
}

// calibrate measures the canonical query's fault-free simulated run time
// on an idle server — the saturation service time S: a serial server
// saturates at 1/S queries per simulated second.
func calibrate(cfg sweepConfig) (time.Duration, error) {
	clk := engine.NewVirtualClock()
	srv, err := serve.New(serve.Config{
		Scenario: cfg.scenario, Seed: cfg.seed, K: cfg.k, Parallelism: 2, Clock: clk,
	})
	if err != nil {
		return 0, err
	}
	start := clk.Now()
	rec := post(srv.Handler(), `{"deadline_ms":60000}`, 0)
	if rec.Code != http.StatusOK {
		return 0, fmt.Errorf("calibration run failed: %d %s", rec.Code, rec.Body.String())
	}
	took := clk.Now().Sub(start)
	if took <= 0 {
		return 0, fmt.Errorf("calibration run charged no simulated time")
	}
	return took, nil
}

// transientEvery is a sequence-keyed chaos rule: every Every-th call
// fails transiently (1-based, like chaos.LatencySpike). Keying on the
// call sequence rather than a random draw fixes how many calls fault
// per sweep. On the virtual clock every call is made on demand, on the
// goroutine that needs it, so which logical call draws which seq — and
// with it the whole sweep — replays exactly
// (TestCommittedSweepMatchesLOADGEN).
type transientEvery struct{ every int }

func (r transientEvery) Decide(c chaos.Call) chaos.Verdict {
	if r.every > 0 && (c.Seq+1)%r.every == 0 {
		return chaos.Verdict{Fault: chaos.FaultTransient}
	}
	return chaos.Verdict{}
}

func (r transientEvery) String() string { return fmt.Sprintf("transientEvery(%d)", r.every) }

// runPoint drives one offered-load multiple against a fresh server.
func runPoint(cfg sweepConfig, svcTime time.Duration, mult float64) (point, error) {
	clk := engine.NewVirtualClock()
	offered := mult / svcTime.Seconds()
	scfg := serve.Config{
		Scenario: cfg.scenario, Seed: cfg.seed, K: cfg.k, Parallelism: 2,
		Clock: clk, Hedge: cfg.hedge,
		// Generous per-tenant quota: queue-lag shedding, not the token
		// bucket, is the signal under test here (quota behavior is covered
		// by the admission and serve tests).
		Admission: admission.Config{TenantRate: 4 * offered, Capacity: 64},
	}
	if cfg.chaos {
		// One latency spike per ~9 calls and one transient per ~17: enough
		// pressure to exercise the hedging layer without a schedule where
		// retries dominate the service time.
		scfg.Wrap = func(alias string, svc service.Service) service.Service {
			return chaos.NewInjector(svc, clk, cfg.seed,
				chaos.LatencySpike{Every: 9, Delay: svcTime / 4},
				transientEvery{every: 17})
		}
	}
	srv, err := serve.New(scfg)
	if err != nil {
		return point{}, err
	}
	handler := srv.Handler()

	deadline := time.Duration(cfg.deadlineMult * float64(svcTime))
	interarrival := time.Duration(float64(svcTime) / mult)
	base := clk.Now()
	pt := point{Mult: mult, OfferedPS: offered, Requests: cfg.requests}
	var latencies []time.Duration
	for i := 0; i < cfg.requests; i++ {
		arrival := base.Add(time.Duration(i) * interarrival)
		if now := clk.Now(); now.Before(arrival) {
			clk.Sleep(arrival.Sub(now))
		}
		queued := clk.Now().Sub(arrival)
		body := fmt.Sprintf(`{"tenant":%q,"deadline_ms":%g}`,
			tenantFor(i), float64(deadline)/float64(time.Millisecond))
		rec := post(handler, body, queued)
		latency := clk.Now().Sub(arrival)
		switch rec.Code {
		case http.StatusOK:
			var resp struct {
				Degraded *json.RawMessage `json:"degraded"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				return point{}, fmt.Errorf("bad /query response: %v", err)
			}
			if resp.Degraded != nil {
				pt.Degraded++
			} else {
				pt.Full++
			}
			// The budget probe is checked per call, so one in-flight call
			// can finish charging its latency after the budget expires;
			// "late" means past the deadline by more than that granularity.
			if latency > deadline+deadline/4 {
				pt.Late++
			}
			latencies = append(latencies, latency)
		case http.StatusTooManyRequests:
			pt.Rejected++
		case http.StatusInternalServerError:
			pt.Errors++
		default:
			return point{}, fmt.Errorf("unexpected status %d: %s", rec.Code, rec.Body.String())
		}
	}
	elapsed := clk.Now().Sub(base)
	if elapsed > 0 {
		pt.GoodputPS = float64(pt.good()) / elapsed.Seconds()
	}
	pt.P50MS = percentileMS(latencies, 0.50)
	pt.P99MS = percentileMS(latencies, 0.99)
	reg := srv.Metrics()
	pt.Hedges = sumCounters(reg, "seco.hedge.attempts.")
	pt.HedgeWins = sumCounters(reg, "seco.hedge.wins.")
	return pt, nil
}

// post drives one in-process POST /query with the driver-measured
// ingress lag stamped in X-Seco-Queued-Ns.
func post(h http.Handler, body string, queued time.Duration) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Seco-Queued-Ns", strconv.FormatInt(int64(queued), 10))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// tenantFor assigns tenants deterministically: t0 is the hot tenant with
// 40% of the traffic, t1..t3 split the rest.
func tenantFor(i int) string {
	if i%5 < 2 {
		return "t0"
	}
	return fmt.Sprintf("t%d", 1+i%3)
}

// percentileMS is the nearest-rank percentile in milliseconds.
func percentileMS(lat []time.Duration, p float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(p*float64(len(s))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return float64(s[rank]) / float64(time.Millisecond)
}

// sumCounters totals every counter whose name has the prefix — the
// per-alias hedge instruments roll up across lanes.
func sumCounters(reg *obs.Registry, prefix string) int64 {
	var sum int64
	for name, v := range reg.Counters() {
		if strings.HasPrefix(name, prefix) {
			sum += v
		}
	}
	return sum
}

// check verifies the overload invariants the serving layer promises.
func (r *report) check() []string {
	var problems []string
	var peak float64
	for _, pt := range r.Points {
		if pt.GoodputPS > peak {
			peak = pt.GoodputPS
		}
	}
	for _, pt := range r.Points {
		if pt.Errors > 0 {
			problems = append(problems, fmt.Sprintf("mult %.2g: %d HTTP 500s (want 0)", pt.Mult, pt.Errors))
		}
		if pt.Full+pt.Degraded+pt.Rejected+pt.Errors != pt.Requests {
			problems = append(problems, fmt.Sprintf("mult %.2g: responses do not add up", pt.Mult))
		}
		// Bounded tail latency: admission sheds before the queue can push
		// p99 past the deadline (small slack for the budget-probe
		// granularity: one in-flight call may finish charging its latency
		// after the budget expires).
		if limit := 1.25 * r.DeadlineMS; pt.P99MS > limit {
			problems = append(problems, fmt.Sprintf("mult %.2g: p99 %.1fms exceeds %.1fms", pt.Mult, pt.P99MS, limit))
		}
		// Goodput plateau: past saturation, throughput of useful answers
		// must hold up instead of collapsing.
		if pt.Mult >= 2 && pt.GoodputPS < 0.6*peak {
			problems = append(problems, fmt.Sprintf("mult %.2g: goodput %.2f/s collapsed (peak %.2f/s)",
				pt.Mult, pt.GoodputPS, peak))
		}
	}
	return problems
}

func writeTable(out io.Writer, r *report) {
	fmt.Fprintf(out, "loadgen: %s seed=%d service_time=%.1fms deadline=%.1fms requests/point=%d\n",
		r.Scenario, r.Seed, r.ServiceTimeMS, r.DeadlineMS, r.Requests)
	fmt.Fprintf(out, "%6s %10s %6s %6s %9s %9s %7s %9s %9s %11s %7s\n",
		"mult", "offered/s", "reqs", "full", "degraded", "rejected", "500s", "p50 ms", "p99 ms", "goodput/s", "hedges")
	for _, pt := range r.Points {
		fmt.Fprintf(out, "%6.2g %10.2f %6d %6d %9d %9d %7d %9.1f %9.1f %11.2f %7d\n",
			pt.Mult, pt.OfferedPS, pt.Requests, pt.Full, pt.Degraded, pt.Rejected,
			pt.Errors, pt.P50MS, pt.P99MS, pt.GoodputPS, pt.Hedges)
	}
}
