// Command secoserve runs the query-serving layer (internal/serve) over a
// built-in scenario: a multi-tenant POST /query endpoint behind admission
// control, plus the engine's observability surface — the cumulative
// metrics registry, the last background run's introspection record and
// trace (structured JSON and Chrome trace_event), and the standard
// net/http/pprof profiling endpoints. A background loop re-executes the
// scenario's canonical query on an interval, so every endpoint has live
// data to show. SIGINT or SIGTERM stops the loop and shuts the server
// down, letting in-flight requests finish.
//
// Usage:
//
//	secoserve -addr 127.0.0.1:6060 -scenario movienight -interval 2s
//
// Endpoints:
//
//	/query             POST: SecoQL execution with per-request K,
//	                   deadline (deadline_ms) and tenant, behind
//	                   admission control — overload answers are certified
//	                   partial top-k (degrade tier) or 429 + Retry-After
//	/metrics           registry as expvar-compatible JSON
//	/metrics.txt       registry as a deterministic text dump
//	/runs/last         last run's introspection record (JSON)
//	/trace/last        last run's trace (structured JSON)
//	/trace/last.chrome last run's trace (chrome://tracing format)
//	/debug/pprof/      CPU, heap, goroutine profiles (with seco.query /
//	                   seco.operator labels on engine goroutines)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"seco/internal/admission"
	"seco/internal/engine"
	"seco/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "secoserve:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("secoserve", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:6060", "listen address for the server")
		scenario    = fs.String("scenario", "movienight", "movienight, conftravel or triangle")
		seed        = fs.Int64("seed", 7, "world seed")
		k           = fs.Int("k", 10, "requested combinations per run")
		metric      = fs.String("metric", "request-response", "cost metric for planning")
		parallelism = fs.Int("parallelism", 4, "upstream combinations a pipe join holds per run, the current one included: the overlap window under -live, where each one ahead prepays one chunk; on the virtual clock it only tightens the bound")
		cache       = fs.Bool("cache", true, "enable the call-sharing layer")
		binaryOnly  = fs.Bool("binary-joins", false, "restrict planning to binary join trees (no n-ary multijoin)")
		interval    = fs.Duration("interval", 2*time.Second, "delay between background query runs (0 = run once)")
		live        = fs.Bool("live", false, "wall clock with live latency pacing (default: virtual clock)")
		hedge       = fs.Bool("hedge", true, "mount the hedged-call layer on every service lane")
		capacity    = fs.Int("capacity", 64, "admission: max queries in flight")
		tenantRate  = fs.Float64("tenant-rate", 50, "admission: per-tenant sustained queries/sec")
		maxBudget   = fs.Duration("max-budget", 0, "cap on any query's execution budget (0 = deadline-bound)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var clock engine.Clock // nil: the server's virtual clock
	if *live {
		clock = engine.WallClock{}
	}
	srv, err := serve.New(serve.Config{
		Scenario:        *scenario,
		Seed:            *seed,
		K:               *k,
		Metric:          *metric,
		Parallelism:     *parallelism,
		CacheCalls:      *cache,
		DisableMultiway: *binaryOnly,
		Clock:           clock,
		Hedge:           *hedge,
		MaxBudget:       *maxBudget,
		Admission:       admission.Config{Capacity: *capacity, TenantRate: *tenantRate},
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go srv.Loop(ctx, *interval)

	fmt.Fprintf(out, "secoserve: scenario %s on http://%s (query, metrics, runs/last, trace/last, debug/pprof)\n",
		*scenario, ln.Addr())
	return serveUntil(ctx, newHTTPServer(srv.Handler()), ln)
}

// The HTTP server's limits. They are constants, not flags: a client gets
// readHeaderTimeout to send its request headers, an idle keep-alive
// connection is closed after idleTimeout, and a shutdown waits up to
// shutdownGrace for in-flight requests to finish.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	shutdownGrace     = 30 * time.Second
)

// newHTTPServer builds the server secoserve listens with.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// serveUntil serves hs on ln until ctx is done, then shuts it down:
// hs stops accepting connections and in-flight requests drain, for at
// most shutdownGrace.
func serveUntil(ctx context.Context, hs *http.Server, ln net.Listener) error {
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	drain, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := hs.Shutdown(drain); err != nil {
		return err
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
