package obs

import (
	"sort"
	"strconv"
	"sync"
	"time"
)

// Clock is the subset of the engine clock the tracer needs. The engine
// binds its own Clock (wall or virtual) at the start of a traced run.
type Clock interface {
	Now() time.Time
}

// SpanKind classifies a trace record.
type SpanKind string

const (
	// KindRun is the single root span covering a whole execution.
	KindRun SpanKind = "run"
	// KindOperator covers an operator's life from Open to Close.
	KindOperator SpanKind = "operator"
	// KindCall covers one service call (invoke or fetch).
	KindCall SpanKind = "call"
	// KindEvent is an instantaneous marker (retry, breaker transition,
	// cache hit, injected fault, degradation, ...).
	KindEvent SpanKind = "event"
)

// Span is one trace record. Start is an offset from the trace epoch
// (the clock reading when the tracer was bound to the run).
type Span struct {
	Lane  string            `json:"lane"`
	Name  string            `json:"name"`
	Kind  SpanKind          `json:"kind"`
	Seq   int               `json:"seq"`
	Start time.Duration     `json:"start_ns"`
	Dur   time.Duration     `json:"dur_ns"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// End returns the span's exclusive end offset.
func (s Span) End() time.Duration { return s.Start + s.Dur }

// Attr is one key/value annotation on a span.
type Attr struct {
	Key string
	Val string
}

// KV builds a string attribute.
func KV(k, v string) Attr { return Attr{Key: k, Val: v} }

// KI builds an integer attribute.
func KI(k string, v int64) Attr { return Attr{Key: k, Val: strconv.FormatInt(v, 10)} }

// KD builds a duration attribute (rendered as time.Duration text).
func KD(k string, d time.Duration) Attr { return Attr{Key: k, Val: d.String()} }

// laneState is the per-lane bookkeeping: a record sequence number and,
// in deterministic mode, the lane-local time cursor.
type laneState struct {
	seq    int
	cursor time.Duration
}

// Tracer collects spans for one execution. It is safe for concurrent
// use by the pipeline's goroutines; a nil *Tracer (and the nil *Scope
// it hands out) is a valid no-op.
type Tracer struct {
	mu            sync.Mutex
	bound         bool
	deterministic bool
	clock         Clock
	epoch         time.Time
	lanes         map[string]*laneState
	spans         []Span
}

// NewTracer returns an empty tracer. It becomes active when the engine
// binds it to the run's clock.
func NewTracer() *Tracer {
	return &Tracer{lanes: map[string]*laneState{}}
}

// Bind attaches the tracer to the run's clock and fixes the stamping
// mode: deterministic (lane-local charged-time cursors) or wall (clock
// readings). The first Bind wins — a Tracer records exactly one run.
func (t *Tracer) Bind(clock Clock, deterministic bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.bound {
		return
	}
	t.bound = true
	t.clock = clock
	t.deterministic = deterministic
	if clock != nil {
		t.epoch = clock.Now()
	}
}

// Deterministic reports the stamping mode fixed by Bind.
func (t *Tracer) Deterministic() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.deterministic
}

// Scope returns the per-lane handle operators hold. Lanes are created
// on first use; a nil tracer returns a nil (still usable) scope.
func (t *Tracer) Scope(lane string) *Scope {
	if t == nil {
		return nil
	}
	return &Scope{t: t, lane: lane}
}

func (t *Tracer) laneLocked(name string) *laneState {
	ls, ok := t.lanes[name]
	if !ok {
		ls = &laneState{}
		t.lanes[name] = ls
	}
	return ls
}

func (t *Tracer) now() time.Time {
	if t.clock != nil {
		return t.clock.Now()
	}
	return time.Time{}
}

// Snapshot returns the spans recorded so far, sorted by (lane, seq) so
// deterministic-mode traces serialize byte-identically.
func (t *Tracer) Snapshot() *Trace {
	if t == nil {
		return &Trace{}
	}
	t.mu.Lock()
	spans := make([]Span, len(t.spans))
	copy(spans, t.spans)
	det := t.deterministic
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Lane != spans[j].Lane {
			return spans[i].Lane < spans[j].Lane
		}
		return spans[i].Seq < spans[j].Seq
	})
	return &Trace{Deterministic: det, Spans: spans}
}

// Scope is an operator's handle into one trace lane. All methods are
// safe on a nil receiver, so untraced runs need no branching at the
// instrumentation sites.
type Scope struct {
	t    *Tracer
	lane string
}

// On reports whether the scope records anything. A hot call site tests
// it before building attributes or a closer: both escape to the heap even
// when the scope would drop them.
func (s *Scope) On() bool { return s != nil && s.t != nil }

// Lane names the scope's trace lane (empty on a nil scope).
func (s *Scope) Lane() string {
	if s == nil {
		return ""
	}
	return s.lane
}

// Event records an instantaneous marker in the lane.
func (s *Scope) Event(name string, attrs ...Attr) {
	if s == nil || s.t == nil {
		return
	}
	t := s.t
	var wall time.Time
	if !t.Deterministic() {
		wall = t.now()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ls := t.laneLocked(s.lane)
	sp := Span{Lane: s.lane, Name: name, Kind: KindEvent, Seq: ls.seq, Attrs: attrMap(attrs, nil)}
	ls.seq++
	if t.deterministic {
		sp.Start = ls.cursor
	} else {
		sp.Start = wall.Sub(t.epoch)
	}
	t.spans = append(t.spans, sp)
}

// StartCall opens a leaf call span (service invoke or fetch) and
// returns its closer. The closer takes the latency charged to the call:
// in deterministic mode that charge is the span's duration and advances
// the lane cursor; in wall mode the duration is measured on the clock
// and the charge is ignored.
func (s *Scope) StartCall(name string, open ...Attr) func(charged time.Duration, close_ ...Attr) {
	return s.StartTimed(name, KindCall, open...)
}

// StartTimed is StartCall with an explicit span kind — the drivers use
// it to give the run span its measured elapsed time as the charge.
func (s *Scope) StartTimed(name string, kind SpanKind, open ...Attr) func(charged time.Duration, close_ ...Attr) {
	if s == nil || s.t == nil {
		return func(time.Duration, ...Attr) {}
	}
	t := s.t
	var wallStart time.Time
	if !t.Deterministic() {
		wallStart = t.now()
	}
	return func(charged time.Duration, close_ ...Attr) {
		var wallEnd time.Time
		if !t.Deterministic() {
			wallEnd = t.now()
		}
		t.mu.Lock()
		defer t.mu.Unlock()
		ls := t.laneLocked(s.lane)
		sp := Span{Lane: s.lane, Name: name, Kind: kind, Seq: ls.seq, Attrs: attrMap(open, close_)}
		ls.seq++
		if t.deterministic {
			sp.Start = ls.cursor
			sp.Dur = charged
			ls.cursor += charged
		} else {
			sp.Start = wallStart.Sub(t.epoch)
			sp.Dur = wallEnd.Sub(wallStart)
		}
		t.spans = append(t.spans, sp)
	}
}

// StartSpan opens a container span (operator Open→Close, the run span)
// and returns its closer. Container spans do not advance the lane
// cursor; in deterministic mode they cover the cursor interval between
// open and close, so they nest around the lane's call spans.
func (s *Scope) StartSpan(name string, kind SpanKind, open ...Attr) func(close_ ...Attr) {
	if s == nil || s.t == nil {
		return func(...Attr) {}
	}
	t := s.t
	var wallStart time.Time
	if !t.Deterministic() {
		wallStart = t.now()
	}
	t.mu.Lock()
	ls := t.laneLocked(s.lane)
	seq := ls.seq
	ls.seq++
	startCursor := ls.cursor
	t.mu.Unlock()
	return func(close_ ...Attr) {
		var wallEnd time.Time
		if !t.Deterministic() {
			wallEnd = t.now()
		}
		t.mu.Lock()
		defer t.mu.Unlock()
		ls := t.laneLocked(s.lane)
		sp := Span{Lane: s.lane, Name: name, Kind: kind, Seq: seq, Attrs: attrMap(open, close_)}
		if t.deterministic {
			sp.Start = startCursor
			sp.Dur = ls.cursor - startCursor
		} else {
			sp.Start = wallStart.Sub(t.epoch)
			sp.Dur = wallEnd.Sub(wallStart)
		}
		t.spans = append(t.spans, sp)
	}
}

func attrMap(open, close_ []Attr) map[string]string {
	if len(open)+len(close_) == 0 {
		return nil
	}
	m := make(map[string]string, len(open)+len(close_))
	for _, a := range open {
		m[a.Key] = a.Val
	}
	for _, a := range close_ {
		m[a.Key] = a.Val
	}
	return m
}
