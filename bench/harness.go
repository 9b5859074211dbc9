package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"seco/internal/admission"
	"seco/internal/serve"
)

// serveConfig is secoserve's defaults, with quotas and the deadline cap
// opened so admission never sheds a benchmark request.
func serveConfig(w *workload) serve.Config {
	return serve.Config{
		Scenario:    w.scenario,
		Seed:        worldSeed,
		K:           10,
		Parallelism: 4,
		CacheCalls:  w.share,
		Hedge:       true,
		Admission:   admission.Config{TenantRate: 1e9, MaxDeadline: time.Hour},
	}
}

// instance is one serve.Server behind a real loopback listener, and the
// keep-alive client that drives it.
type instance struct {
	srv    *serve.Server
	http   *http.Server
	served chan error
	base   string
	client *http.Client
	rec    *recorder // nil unless traced
}

// startInstance builds the server and brings its listener up. With a
// recorder, the handler and every bound service are wrapped to record
// spans.
func startInstance(w *workload, rec *recorder) (*instance, error) {
	in := &instance{rec: rec, served: make(chan error, 1)}
	cfg := serveConfig(w)
	if rec != nil {
		cfg.Wrap = newWireSet(rec).wrap
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	in.srv = srv
	handler := srv.Handler()
	if rec != nil {
		handler = rec.middleware(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	in.http = &http.Server{Handler: handler}
	go func() { in.served <- in.http.Serve(ln) }()
	in.base = "http://" + ln.Addr().String()
	in.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: w.clients}}
	return in, nil
}

// close stops the listener and waits for the serving goroutine.
func (in *instance) close() error {
	in.client.CloseIdleConnections()
	err := in.http.Close()
	if serveErr := <-in.served; !errors.Is(serveErr, http.ErrServerClosed) {
		err = errors.Join(err, serveErr)
	}
	return err
}

// post sends one POST /query and reads the whole reply into buf. A
// non-zero spanID travels in the trace header.
func (in *instance) post(body []byte, spanID int64, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(http.MethodPost, in.base+"/query", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if spanID != 0 {
		req.Header.Set(reqHeader, strconv.FormatInt(spanID, 10))
	}
	resp, err := in.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// setup times what a user waits for before the first answer: building
// the server, bringing the listener up, and one correct canonical reply.
func setup(w *workload, o *oracle, rec *recorder) (*instance, time.Duration, error) {
	start := wall.Now()
	in, err := startInstance(w, rec)
	if err != nil {
		return nil, 0, err
	}
	var buf bytes.Buffer
	canonical := w.classes[0]
	status, err := in.post(encodeRequest(canonical.text, canonical.k, canonical.inputs), 0, &buf)
	if err == nil {
		err = o.check(0, status, buf.Bytes())
	}
	if err != nil {
		return nil, 0, errors.Join(fmt.Errorf("setup: first canonical answer: %w", err), in.close())
	}
	return in, wall.Now().Sub(start), nil
}

// sample is one correctly answered request; end is nanoseconds since the
// pass began. Sixteen bytes, in buffers of fixed capacity: the harness
// shares the heap it measures, so what it holds there must not vary.
type sample struct{ end, lat int64 }

// sampleCap is the clients' buffers taken together: 2 MB, split evenly.
// The fastest workload has one client and fills half of it in a 30 s
// run; a buffer that does overflow grows like any slice.
const sampleCap = 1 << 17

// clientLog is what one client saw.
type clientLog struct {
	samples  []sample
	failedAt []int64   // end times of requests that were not answered correctly
	sizes    []float64 // response sizes, traced passes only
	failure  error     // the first one
}

// sliceStats is one measured slice.
type sliceStats struct {
	n        int
	rps      float64
	p50, p99 float64 // ms
	tail     float64 // the percentile reported as p99 (see tail)
}

// pass is the outcome of one measured window.
type pass struct {
	slices            []sliceStats
	attempted, failed int
	firstFailure      error
	cpu               time.Duration    // user+sys of the whole process over the window
	allocBytes        uint64           // heap bytes allocated over the window
	counters          map[string]int64 // the server registry's counters, as deltas over the window
	heapMB            float64          // median of the slice-end samples
	respBytes         []float64        // ascending; traced passes only
	from, to          int64            // window edges, ns since the recorder's epoch (traced passes)
}

func (p *pass) correct() int { return p.attempted - p.failed }

// over reduces the slices to one figure: the median slice's.
func (p *pass) over(f func(sliceStats) float64) float64 {
	xs := make([]float64, len(p.slices))
	for i, s := range p.slices {
		xs[i] = f(s)
	}
	return median(xs)
}

func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// heapAllocs reads the cumulative heap allocation counters.
func heapAllocs() (objects, bytes uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// liveHeapMB is HeapInuse right after a forced collection. Sampling it
// without collecting first would report wherever the allocator happens
// to stand between two cycles, which swings by the GC's own factor of
// two; after a collection it is what the process retains.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// drive is one closed-loop client: it sends its next request when the
// previous reply has been read, until stop is set. Latency is send → body
// read; the oracle check runs after the clock stops.
func (in *instance) drive(gen generator, o *oracle, epoch time.Time, stop *atomic.Bool, capacity int) *clientLog {
	log := &clientLog{samples: make([]sample, 0, capacity)}
	var buf bytes.Buffer
	for !stop.Load() {
		req := gen()
		var id int64
		if in.rec != nil {
			id = in.rec.newID()
		}
		start := wall.Now()
		status, err := in.post(req.body, id, &buf)
		end := wall.Now()
		if in.rec != nil {
			in.rec.add(span{ID: id, Req: id, Kind: kindClient,
				Start: int64(start.Sub(in.rec.epoch)), End: int64(end.Sub(in.rec.epoch))})
		}
		if err == nil {
			err = o.check(req.class, status, buf.Bytes())
		}
		if err != nil {
			log.failedAt = append(log.failedAt, int64(end.Sub(epoch)))
			if log.failure == nil {
				log.failure = err
			}
			continue
		}
		log.samples = append(log.samples, sample{end: int64(end.Sub(epoch)), lat: int64(end.Sub(start))})
		if in.rec != nil {
			log.sizes = append(log.sizes, float64(buf.Len()))
		}
	}
	return log
}

// measure drives the instance with closed-loop clients through a
// warm-up, whose requests are discarded, and nSlices slices of length
// slice. Rates and percentiles are taken per slice; processor time,
// allocation and the server's counters over the whole window.
func (in *instance) measure(w *workload, seed int64, o *oracle, clients int, warm, slice time.Duration, nSlices int) (*pass, error) {
	var (
		stop  atomic.Bool
		wg    sync.WaitGroup
		logs  = make([]*clientLog, clients)
		epoch = wall.Now()
	)
	for c := range logs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			logs[c] = in.drive(w.newGen(w, seed, c), o, epoch, &stop, sampleCap/clients)
		}(c)
	}
	finish := func() { stop.Store(true); wg.Wait() }

	wall.Sleep(warm)
	p := &pass{}
	cpu0, err := cpuTime()
	if err != nil {
		finish()
		return nil, err
	}
	count0 := in.srv.Metrics().Counters()
	_, alloc0 := heapAllocs()
	if in.rec != nil {
		in.rec.on.Store(true)
	}
	t0 := wall.Now()
	edges := []int64{int64(t0.Sub(epoch))}
	var heaps []float64
	for i := 1; i <= nSlices; i++ {
		wall.Sleep(t0.Add(time.Duration(i) * slice).Sub(wall.Now()))
		edges = append(edges, int64(wall.Now().Sub(epoch)))
		if i == nSlices {
			// Close the window's accounts before the last heap sample, so
			// its forced collection is charged to no request.
			if in.rec != nil {
				in.rec.on.Store(false)
			}
			_, alloc1 := heapAllocs()
			p.allocBytes = alloc1 - alloc0
			cpu1, err := cpuTime()
			if err != nil {
				finish()
				return nil, err
			}
			p.cpu = cpu1 - cpu0
			p.counters = in.srv.Metrics().Counters()
			for name, v := range count0 {
				p.counters[name] -= v
			}
		}
		heaps = append(heaps, liveHeapMB())
	}
	finish()
	p.heapMB = median(heaps)
	if in.rec != nil {
		shift := int64(epoch.Sub(in.rec.epoch))
		p.from, p.to = edges[0]+shift, edges[nSlices]+shift
	}

	// sliceOf places an end time in its slice, or outside the window.
	sliceOf := func(end int64) (int, bool) {
		i := sort.Search(len(edges), func(i int) bool { return edges[i] > end }) - 1
		return i, i >= 0 && i < nSlices
	}
	lats := make([][]float64, nSlices)
	for _, log := range logs {
		for _, s := range log.samples {
			if i, ok := sliceOf(s.end); ok {
				p.attempted++
				lats[i] = append(lats[i], float64(s.lat)/1e6)
			}
		}
		for _, end := range log.failedAt {
			if _, ok := sliceOf(end); ok {
				p.attempted++
				p.failed++
			}
		}
		p.respBytes = append(p.respBytes, log.sizes...)
		if p.firstFailure == nil {
			p.firstFailure = log.failure
		}
	}
	sort.Float64s(p.respBytes)
	p.slices = make([]sliceStats, nSlices)
	for i := range p.slices {
		sort.Float64s(lats[i])
		p99, tailP := tail(lats[i], 0.99)
		p.slices[i] = sliceStats{
			n:    len(lats[i]),
			rps:  float64(len(lats[i])) / (float64(edges[i+1]-edges[i]) / 1e9),
			p50:  percentile(lats[i], 0.5),
			p99:  p99,
			tail: tailP,
		}
	}
	return p, nil
}
