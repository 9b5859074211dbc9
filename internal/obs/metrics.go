package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// LatencyBucketsMS are the default histogram bounds for per-call
// latency, in milliseconds. The seeded worlds publish latencies in the
// 60–200ms range, so the grid is dense there.
var LatencyBucketsMS = []float64{1, 2, 5, 10, 25, 50, 75, 100, 150, 250, 500, 1000, 2500}

// DepthBuckets are the default histogram bounds for chunk fetch depth
// (1-based chunk index per fetch).
var DepthBuckets = []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32}

// Counter is a monotonically increasing metric. Nil counters are no-ops
// so instrumentation sites need no registry branching.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value reads the counter (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a set-anywhere metric. Nil gauges are no-ops.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adjusts the gauge by n.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value reads the gauge (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution with explicit upper bounds
// plus an overflow bucket. Nil histograms are no-ops.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []int64 // len(bounds)+1; last is overflow
	sum    float64
	n      int64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.n++
	h.sum += v
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.bounds)]++
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Sum returns the sample sum.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Quantile estimates the p-quantile (0 < p <= 1) by linear
// interpolation within the containing bucket; samples in the overflow
// bucket report the last explicit bound. Returns 0 when empty.
func (h *Histogram) Quantile(p float64) float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(p)
}

func (h *Histogram) quantileLocked(p float64) float64 {
	if h.n == 0 || len(h.bounds) == 0 {
		return 0
	}
	target := p * float64(h.n)
	var cum int64
	for i, c := range h.counts[:len(h.bounds)] {
		if c == 0 {
			cum += c
			continue
		}
		if float64(cum+c) >= target {
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			}
			upper := h.bounds[i]
			frac := (target - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lower + (upper-lower)*frac
		}
		cum += c
	}
	return h.bounds[len(h.bounds)-1]
}

type histSnapshot struct {
	Count   int64         `json:"count"`
	Sum     float64       `json:"sum"`
	P50     float64       `json:"p50"`
	P90     float64       `json:"p90"`
	P99     float64       `json:"p99"`
	Buckets []bucketCount `json:"buckets"`
}

type bucketCount struct {
	Le string `json:"le"`
	N  int64  `json:"n"`
}

func (h *Histogram) snapshot() histSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := histSnapshot{
		Count: h.n,
		Sum:   h.sum,
		P50:   h.quantileLocked(0.50),
		P90:   h.quantileLocked(0.90),
		P99:   h.quantileLocked(0.99),
	}
	for i, b := range h.bounds {
		s.Buckets = append(s.Buckets, bucketCount{Le: trimFloat(b), N: h.counts[i]})
	}
	s.Buckets = append(s.Buckets, bucketCount{Le: "+Inf", N: h.counts[len(h.bounds)]})
	return s
}

// Registry is a named collection of instruments. Lookups create on
// first use; a nil *Registry hands out nil (no-op) instruments, so a
// metrics-less engine pays a nil check per site and nothing more.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram. The
// bucket bounds of the first creation win; they must be ascending.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		b := make([]float64, len(bounds))
		copy(b, bounds)
		h = &Histogram{bounds: b, counts: make([]int64, len(b)+1)}
		r.hists[name] = h
	}
	return h
}

// Counters returns a snapshot of every counter's value by name, for
// programmatic rollups (e.g. summing the per-alias seco.hedge.*
// instruments) without going through a serialized dump.
func (r *Registry) Counters() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	return out
}

// names returns all instrument names, sorted.
func (r *Registry) names() []string {
	var out []string
	for n := range r.counters {
		out = append(out, n)
	}
	for n := range r.gauges {
		out = append(out, n)
	}
	for n := range r.hists {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// WriteJSON emits the registry as one expvar-compatible JSON object:
// counters and gauges as numbers, histograms as objects with count,
// sum, interpolated quantiles and explicit buckets. Keys are sorted,
// so equal registry states serialize identically.
func (r *Registry) WriteJSON(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, "{}\n")
		return err
	}
	r.mu.Lock()
	names := r.names()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	r.mu.Unlock()

	var b strings.Builder
	b.WriteString("{")
	for i, name := range names {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString("\n  ")
		b.WriteString(strconv.Quote(name))
		b.WriteString(": ")
		switch {
		case counters[name] != nil:
			b.WriteString(strconv.FormatInt(counters[name].Value(), 10))
		case gauges[name] != nil:
			b.WriteString(strconv.FormatInt(gauges[name].Value(), 10))
		default:
			writeHistJSON(&b, hists[name].snapshot())
		}
	}
	if len(names) > 0 {
		b.WriteString("\n")
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func writeHistJSON(b *strings.Builder, s histSnapshot) {
	fmt.Fprintf(b, `{"count": %d, "sum": %s, "p50": %s, "p90": %s, "p99": %s, "buckets": {`,
		s.Count, trimFloat(s.Sum), trimFloat(s.P50), trimFloat(s.P90), trimFloat(s.P99))
	for i, bc := range s.Buckets {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(b, "%s: %d", strconv.Quote(bc.Le), bc.N)
	}
	b.WriteString("}}")
}

// Text renders a deterministic line-per-instrument dump, suitable for
// /metrics.txt and for golden comparisons:
//
//	seco.invoker.fetches.M 12
//	seco.invoker.latency_ms.M count=12 sum=1440 p50=110 p99=119.8
func (r *Registry) Text() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	names := r.names()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, name := range names {
		switch {
		case counters[name] != nil:
			fmt.Fprintf(&b, "%s %d\n", name, counters[name].Value())
		case gauges[name] != nil:
			fmt.Fprintf(&b, "%s %d\n", name, gauges[name].Value())
		default:
			s := hists[name].snapshot()
			fmt.Fprintf(&b, "%s count=%d sum=%s p50=%s p90=%s p99=%s\n",
				name, s.Count, trimFloat(s.Sum), trimFloat(s.P50), trimFloat(s.P90), trimFloat(s.P99))
		}
	}
	return b.String()
}

// trimFloat renders a float compactly (no trailing zeros, no exponent
// for the magnitudes metrics use).
func trimFloat(f float64) string {
	return strconv.FormatFloat(f, 'f', -1, 64)
}
