package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"seco/internal/mart"
	"seco/internal/plan"
	"seco/internal/synth"
)

// yieldClock is a clock that waits, as far as the engine can tell: it is
// not a VirtualClock, so pipe look-ahead and join-branch prefetch run on
// their own goroutines under it. It never blocks: Now reads an atomic
// counter, and Sleep advances it and yields, so the overlapped path is
// exercised (and raced) at virtual-clock speed.
type yieldClock struct{ ns atomic.Int64 }

func (c *yieldClock) Now() time.Time { return time.Time{}.Add(time.Duration(c.ns.Load())) }

func (c *yieldClock) Sleep(d time.Duration) {
	c.ns.Add(int64(d))
	runtime.Gosched()
}

func TestVirtualClockAdvancesWithoutBlocking(t *testing.T) {
	c := NewVirtualClock()
	epoch := c.Now()
	wall := time.Now()
	c.Sleep(5 * time.Hour)
	if time.Since(wall) > time.Second {
		t.Fatal("VirtualClock.Sleep blocked in real time")
	}
	if got := c.Now().Sub(epoch); got != 5*time.Hour {
		t.Errorf("advanced by %v, want 5h", got)
	}
	c.Sleep(0)
	c.Sleep(-time.Minute)
	if got := c.Now().Sub(epoch); got != 5*time.Hour {
		t.Errorf("zero/negative sleeps moved the clock to %v past epoch", got)
	}
}

func TestVirtualClockConcurrentSleepsSum(t *testing.T) {
	c := NewVirtualClock()
	epoch := c.Now()
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Sleep(time.Millisecond)
		}()
	}
	wg.Wait()
	if got := c.Now().Sub(epoch); got != 50*time.Millisecond {
		t.Errorf("concurrent sleeps advanced %v, want 50ms", got)
	}
}

// A simulated run must report simulated elapsed time: the serial sum of
// every charged call latency, regardless of how fast the simulation
// itself ran. This is the regression test for Run.Elapsed previously
// reading the wall clock, which made simulated timings meaningless.
func TestSimulatedElapsedIsChargedLatencySum(t *testing.T) {
	reg, err := mart.MovieScenario()
	if err != nil {
		t.Fatal(err)
	}
	p, q, err := plan.RunningExamplePlan(reg)
	if err != nil {
		t.Fatal(err)
	}
	world, err := synth.NewMovieWorld(reg, synth.MovieConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	e := New(world.Services(), nil) // nil delay hook: virtual clock
	if _, ok := e.Clock().(*VirtualClock); !ok {
		t.Fatalf("New with nil delay installed %T, want *VirtualClock", e.Clock())
	}
	a, err := plan.Annotate(p, map[string]int{"M": 1, "T": 1, "R": 1})
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Now()
	run, err := e.Execute(context.Background(), a, Options{
		Inputs: world.Inputs, Weights: q.Weights,
	})
	if err != nil {
		t.Fatal(err)
	}
	if realTime := time.Since(wall); run.Elapsed < realTime {
		t.Errorf("simulated elapsed %v below real %v: latency not charged to the virtual clock", run.Elapsed, realTime)
	}
	var want time.Duration
	for alias, calls := range run.Calls {
		lane, ok := e.Invoker().Lane(alias)
		if !ok {
			t.Fatalf("no lane for %s", alias)
		}
		want += time.Duration(calls) * lane.Stats().Latency
	}
	if want == 0 {
		t.Fatal("no latency charged; world publishes zero latencies?")
	}
	if run.Elapsed != want {
		t.Errorf("Elapsed = %v, want the serial latency sum %v (calls %v)", run.Elapsed, want, run.Calls)
	}
}

// Eight goroutines charging latency while reading the clock: no reader
// may see time go backwards, and the final reading is the sum of every
// charged duration.
func TestVirtualClockHammer(t *testing.T) {
	c := NewVirtualClock()
	epoch := c.Now()
	const workers, rounds = 8, 2000
	var wg sync.WaitGroup
	var want atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			last := c.Now()
			for i := 0; i < rounds; i++ {
				d := time.Duration(w*rounds+i+1) * time.Microsecond
				c.Sleep(d)
				want.Add(int64(d))
				now := c.Now()
				if now.Before(last) {
					t.Errorf("worker %d: clock went back from %v to %v", w, last, now)
					return
				}
				last = now
			}
		}(w)
	}
	wg.Wait()
	if got := c.Now().Sub(epoch); got != time.Duration(want.Load()) {
		t.Errorf("clock advanced %v, want the sum of sleeps %v", got, time.Duration(want.Load()))
	}
}
