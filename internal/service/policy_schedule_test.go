package service

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"seco/internal/obs"
)

// schedClock is a manually advanced TimeSource that records every
// duration slept on it.
type schedClock struct {
	mu    sync.Mutex
	now   time.Time
	slept []time.Duration
}

func (c *schedClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *schedClock) Sleep(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	c.slept = append(c.slept, d)
}

func (c *schedClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// takeSlept returns and clears the recorded sleeps.
func (c *schedClock) takeSlept() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.slept
	c.slept = nil
	return out
}

// TestPolicyBackoffSchedule pins the chaos sweep's call policy (seed 42)
// over a service that fails until told otherwise, on a recording clock:
// every backoff slept, every give-up, trip, rejection, half-open probe
// and close, with the trace events and their clock offsets. Any change
// to the jitter draw order, the backoff growth, the trip threshold or
// the cooldown moves a line.
func TestPolicyBackoffSchedule(t *testing.T) {
	sw := &switchSvc{inner: newMovieTable(t, 0)}
	clk := &schedClock{now: time.Unix(0, 0)}
	pol := sweepPolicy(sw, clk, 42)
	tr := obs.NewTracer()
	tr.Bind(clk, false)
	ctx := obs.WithScope(context.Background(), tr.Scope("M"))

	var log []string
	seen := 0
	op := func(label string) Invocation {
		start := clk.Now()
		inv, err := pol.Invoke(ctx, movieInput())
		outcome := "ok"
		if err != nil {
			outcome = err.Error()
		}
		log = append(log, fmt.Sprintf("%s at %v: %s", label, start.Sub(time.Unix(0, 0)), outcome))
		if slept := clk.takeSlept(); len(slept) > 0 {
			log = append(log, fmt.Sprintf("  slept %v", slept))
		}
		spans := tr.Snapshot().Spans
		for _, sp := range spans[seen:] {
			keys := make([]string, 0, len(sp.Attrs))
			for k := range sp.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			attrs := ""
			for _, k := range keys {
				attrs += " " + k + "=" + sp.Attrs[k]
			}
			log = append(log, fmt.Sprintf("  %v %s%s", sp.Start, sp.Name, attrs))
		}
		seen = len(spans)
		return inv
	}

	sw.failing.Store(true)
	op("invoke 1")
	op("invoke 2")
	op("invoke 3")
	op("invoke 4 (open)")
	clk.advance(250 * time.Millisecond)
	op("invoke 5 (half-open probe)")
	op("invoke 6 (open)")
	clk.advance(250 * time.Millisecond)
	sw.failing.Store(false)
	inv := op("invoke 7 (half-open probe)")
	if _, err := inv.Fetch(ctx); err != nil {
		t.Fatalf("fetch after close: %v", err)
	}
	rs := CollectResilience(pol)
	log = append(log, fmt.Sprintf("retries=%d giveups=%d trips=%d rejected=%d backend-calls=%d",
		rs.Retries, rs.GiveUps, rs.Tripped, rs.Rejected, sw.calls.Load()))

	if got, want := strings.Join(log, "\n"), strings.TrimPrefix(wantPolicySchedule, "\n"); got != want {
		t.Errorf("policy schedule moved:\n%s\n\nwant:\n%s", got, want)
	}
}

const wantPolicySchedule = `
invoke 1 at 0s: service Movie1: giving up after 8 retries: backend down: service: transient failure
  slept [813.485µs 1.933999ms 2.791812ms 7.164725ms 15.649452ms 25.868907ms 37.987931ms 103.395465ms]
  0s retry attempt=1 backoff=813.485µs
  813.485µs retry attempt=2 backoff=1.933999ms
  2.747484ms retry attempt=3 backoff=2.791812ms
  5.539296ms retry attempt=4 backoff=7.164725ms
  12.704021ms retry attempt=5 backoff=15.649452ms
  28.353473ms retry attempt=6 backoff=25.868907ms
  54.22238ms retry attempt=7 backoff=37.987931ms
  92.210311ms retry attempt=8 backoff=103.395465ms
  195.605776ms retry-giveup attempts=8
invoke 2 at 195.605776ms: service Movie1: giving up after 8 retries: backend down: service: transient failure
  slept [808.477µs 1.353623ms 2.528741ms 7.128233ms 13.106537ms 30.06019ms 42.751649ms 98.162968ms]
  195.605776ms retry attempt=1 backoff=808.477µs
  196.414253ms retry attempt=2 backoff=1.353623ms
  197.767876ms retry attempt=3 backoff=2.528741ms
  200.296617ms retry attempt=4 backoff=7.128233ms
  207.42485ms retry attempt=5 backoff=13.106537ms
  220.531387ms retry attempt=6 backoff=30.06019ms
  250.591577ms retry attempt=7 backoff=42.751649ms
  293.343226ms retry attempt=8 backoff=98.162968ms
  391.506194ms retry-giveup attempts=8
invoke 3 at 391.506194ms: service Movie1: giving up after 8 retries: backend down: service: transient failure
  slept [643.817µs 1.284093ms 2.116657ms 4.116877ms 15.045345ms 26.557329ms 54.829148ms 113.464177ms]
  391.506194ms retry attempt=1 backoff=643.817µs
  392.150011ms retry attempt=2 backoff=1.284093ms
  393.434104ms retry attempt=3 backoff=2.116657ms
  395.550761ms retry attempt=4 backoff=4.116877ms
  399.667638ms retry attempt=5 backoff=15.045345ms
  414.712983ms retry attempt=6 backoff=26.557329ms
  441.270312ms retry attempt=7 backoff=54.829148ms
  496.09946ms retry attempt=8 backoff=113.464177ms
  609.563637ms retry-giveup attempts=8
  609.563637ms breaker-trip consecutive=3
invoke 4 (open) at 609.563637ms: service Movie1: service: circuit open
  609.563637ms breaker-reject state=open
invoke 5 (half-open probe) at 859.563637ms: service Movie1: giving up after 8 retries: backend down: service: transient failure
  slept [673.718µs 1.958022ms 2.146423ms 7.480152ms 12.393932ms 28.622438ms 52.244951ms 81.81042ms]
  859.563637ms breaker-half-open
  859.563637ms retry attempt=1 backoff=673.718µs
  860.237355ms retry attempt=2 backoff=1.958022ms
  862.195377ms retry attempt=3 backoff=2.146423ms
  864.3418ms retry attempt=4 backoff=7.480152ms
  871.821952ms retry attempt=5 backoff=12.393932ms
  884.215884ms retry attempt=6 backoff=28.622438ms
  912.838322ms retry attempt=7 backoff=52.244951ms
  965.083273ms retry attempt=8 backoff=81.81042ms
  1.046893693s retry-giveup attempts=8
  1.046893693s breaker-trip consecutive=4
invoke 6 (open) at 1.046893693s: service Movie1: service: circuit open
  1.046893693s breaker-reject state=open
invoke 7 (half-open probe) at 1.296893693s: ok
  1.296893693s breaker-half-open
  1.296893693s breaker-close
retries=32 giveups=4 trips=2 rejected=2 backend-calls=37`
