package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"seco/internal/engine"
	"seco/internal/mart"
	"seco/internal/service"
)

// wall is the benchmark's time source: the engine's sanctioned wall
// clock, so the harness reads real time the way the repo allows.
var wall engine.WallClock

// spanKind is the layer boundary a span was recorded at, outermost first.
// A client.request contains the serve.handler that answered it, which
// contains the service.wire calls its execution made; the staged replay
// records replay.execute around Engine.Execute, with the same
// service.wire children.
type spanKind uint8

const (
	kindClient spanKind = iota
	kindHandler
	kindWireInvoke
	kindWireFetch
	kindReplayExecute
)

var kindNames = [...]string{
	kindClient: "client.request", kindHandler: "serve.handler",
	kindWireInvoke: "service.wire", kindWireFetch: "service.wire",
	kindReplayExecute: "replay.execute",
}

func (k spanKind) wire() bool { return k == kindWireInvoke || k == kindWireFetch }

// reqHeader carries the client span's id to the handler middleware.
const reqHeader = "X-Bench-Span"

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the recorder's epoch; Req is the id of the request's
// outermost span and is shared by every span the request caused. It holds
// no pointer, so the collector never scans the span buffer.
type span struct {
	ID, Parent, Req int64
	Start, End      int64
	Kind            spanKind
	Alias           uint8 // wire spans: index into the recorder's aliases
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. It records only
// while on is set, so warm-up traffic leaves nothing behind.
type recorder struct {
	epoch time.Time
	ids   atomic.Int64
	on    atomic.Bool

	mu      sync.Mutex
	spans   []span
	aliases []string
}

// newRecorder allocates the whole span buffer up front. The traced run
// allocates it before its untraced pass too: the buffer is part of the
// live heap that paces the collector, and the two passes are compared.
func newRecorder(capacity int) *recorder {
	return &recorder{epoch: wall.Now(), spans: make([]span, 0, capacity)}
}

func (r *recorder) newID() int64 { return r.ids.Add(1) }

func (r *recorder) now() int64 { return int64(wall.Now().Sub(r.epoch)) }

func (r *recorder) add(s span) {
	if !r.on.Load() {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// aliasIndex interns an alias for wire spans to refer to.
func (r *recorder) aliasIndex(alias string) uint8 {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, a := range r.aliases {
		if a == alias {
			return uint8(i)
		}
	}
	r.aliases = append(r.aliases, alias)
	return uint8(len(r.aliases) - 1)
}

// recorded returns the spans recorded so far, without copying the
// buffer: read it only while recording is off.
func (r *recorder) recorded() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans
}

// spanRecord is a span as -spans writes it.
type spanRecord struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Op     string `json:"op,omitempty"` // service.wire: "invoke" or "fetch", and the alias
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// writeJSON dumps the spans as one JSON array.
func (r *recorder) writeJSON(path string) error {
	spans := r.recorded()
	out := make([]spanRecord, len(spans))
	for i, s := range spans {
		out[i] = spanRecord{ID: s.ID, Parent: s.Parent, Req: s.Req, Name: kindNames[s.Kind], Start: s.Start, End: s.End}
		switch s.Kind {
		case kindWireInvoke:
			out[i].Op = "invoke " + r.aliases[s.Alias]
		case kindWireFetch:
			out[i].Op = "fetch " + r.aliases[s.Alias]
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanRef is what a context carries so a callee can parent its spans.
type spanRef struct{ req, parent int64 }

type spanKey struct{}

func withSpan(ctx context.Context, ref spanRef) context.Context {
	return context.WithValue(ctx, spanKey{}, ref)
}

// middleware records a serve.handler span around next for every request
// that carries a client span id, and hands the id down in the context.
func (r *recorder) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		client, err := strconv.ParseInt(req.Header.Get(reqHeader), 10, 64)
		if err != nil {
			next.ServeHTTP(w, req)
			return
		}
		id := r.newID()
		start := r.now()
		next.ServeHTTP(w, req.WithContext(withSpan(req.Context(), spanRef{req: client, parent: id})))
		r.add(span{ID: id, Parent: client, Req: client, Kind: kindHandler, Start: start, End: r.now()})
	})
}

// wireService times every call that reaches the wrapped service — the
// substrate beneath the invoker stack. It always keeps the total; it records
// spans when it has a recorder and the call's context names a request.
type wireService struct {
	inner    service.Service
	alias    string
	aliasIdx uint8 // the alias in rec's table
	rec      *recorder
	// capture, when non-nil, sees every input binding invoked.
	capture func(alias string, in service.Input)

	ns atomic.Int64
}

// Unwrap implements service.Wrapper, so the engine's chain walkers
// (time-source installation, resilience collection) see through.
func (w *wireService) Unwrap() service.Service { return w.inner }

func (w *wireService) Interface() *mart.Interface { return w.inner.Interface() }

func (w *wireService) Stats() service.Stats { return w.inner.Stats() }

func (w *wireService) Invoke(ctx context.Context, in service.Input) (service.Invocation, error) {
	if w.capture != nil {
		w.capture(w.alias, in)
	}
	start := wall.Now()
	inv, err := w.inner.Invoke(ctx, in)
	w.observe(ctx, kindWireInvoke, start)
	if err != nil {
		return nil, err
	}
	return &wireInvocation{svc: w, inner: inv}, nil
}

// observe closes one timed call that began at start.
func (w *wireService) observe(ctx context.Context, kind spanKind, start time.Time) {
	end := wall.Now()
	w.ns.Add(int64(end.Sub(start)))
	ref, ok := ctx.Value(spanKey{}).(spanRef)
	if w.rec == nil || !ok {
		return
	}
	w.rec.add(span{
		ID: w.rec.newID(), Parent: ref.parent, Req: ref.req, Kind: kind, Alias: w.aliasIdx,
		Start: int64(start.Sub(w.rec.epoch)), End: int64(end.Sub(w.rec.epoch)),
	})
}

type wireInvocation struct {
	svc   *wireService
	inner service.Invocation
}

func (wi *wireInvocation) Fetch(ctx context.Context) (service.Chunk, error) {
	start := wall.Now()
	chunk, err := wi.inner.Fetch(ctx)
	wi.svc.observe(ctx, kindWireFetch, start)
	return chunk, err
}

// wireSet wraps each bound service once, however many aliases share it:
// the invoker keys its Share layers on the service value, so one wrapper
// per service keeps aliases of one interface on one memo.
type wireSet struct {
	rec     *recorder
	capture func(alias string, in service.Input)

	mu    sync.Mutex
	bySvc map[service.Service]*wireService
}

func newWireSet(rec *recorder) *wireSet {
	return &wireSet{rec: rec, bySvc: map[service.Service]*wireService{}}
}

// wrap is a serve.Config.Wrap hook.
func (ws *wireSet) wrap(alias string, svc service.Service) service.Service {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	w, ok := ws.bySvc[svc]
	if !ok {
		w = &wireService{inner: svc, alias: alias, rec: ws.rec, capture: ws.capture}
		if ws.rec != nil {
			w.aliasIdx = ws.rec.aliasIndex(alias)
		}
		ws.bySvc[svc] = w
	}
	return w
}

// totalNS is the time spent so far in every wrapped service.
func (ws *wireSet) totalNS() int64 {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	var ns int64
	for _, w := range ws.bySvc {
		ns += w.ns.Load()
	}
	return ns
}

// covered is how much of [lo, hi) the spans cover, counting overlapping
// stretches once.
func covered(lo, hi int64, spans []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := s.Start, s.End
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var sum int64
	end := lo
	for _, v := range ivs {
		if v.hi <= end {
			continue
		}
		if v.lo > end {
			end = v.lo
		}
		sum += v.hi - end
		end = v.hi
	}
	return sum
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(parent span, children []span) int64 {
	return parent.dur() - covered(parent.Start, parent.End, children)
}

// requestSpans groups the spans of one request: its outermost span, the
// handler span inside it and the wire calls inside that.
type requestSpans struct {
	root    span
	handler *span
	wire    []span
}

// groupByRequest indexes the spans under each outermost span of kind
// root. Requests whose outermost span is missing (still in flight when
// recording stopped) are dropped.
func groupByRequest(spans []span, root spanKind) []requestSpans {
	byReq := map[int64]*requestSpans{}
	for _, s := range spans {
		if s.Kind == root {
			byReq[s.ID] = &requestSpans{root: s}
		}
	}
	for i, s := range spans {
		g, ok := byReq[s.Req]
		switch {
		case !ok:
		case s.Kind == kindHandler:
			g.handler = &spans[i]
		case s.Kind.wire():
			g.wire = append(g.wire, s)
		}
	}
	out := make([]requestSpans, 0, len(byReq))
	for _, g := range byReq {
		out = append(out, *g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].root.Start < out[j].root.Start })
	return out
}
