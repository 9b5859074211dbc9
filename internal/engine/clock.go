package engine

import (
	"sync/atomic"
	"time"
)

// Clock is the engine's notion of time: Now anchors elapsed-time
// reporting and Sleep charges per-call latency. Exactly one clock drives
// an execution, so a simulated run reports simulated elapsed time instead
// of the (meaningless) wall-clock duration of the simulation itself.
//
// This file is the single sanctioned home of time.Now/time.Sleep in the
// engine; the secolint wallclock analyzer allowlists it and flags direct
// wall-clock calls anywhere else.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// Sleep advances the clock by d, blocking only if the clock is real.
	Sleep(d time.Duration)
}

// WallClock is real time: time.Now and time.Sleep. Use it for live
// pacing, where service latencies are actually waited out.
type WallClock struct{}

// Now implements Clock.
func (WallClock) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (WallClock) Sleep(d time.Duration) { time.Sleep(d) }

// VirtualClock is discrete simulated time: Sleep returns immediately and
// advances the clock by the full duration, so after a run Now has moved by
// the serial sum of all charged call latencies. It is safe for concurrent
// use (pipeline goroutines charge latency concurrently) and lock-free: the
// clock is one atomic offset past the zero time.
type VirtualClock struct {
	offset atomic.Int64 // nanoseconds
}

// NewVirtualClock returns a virtual clock starting at the zero time.
func NewVirtualClock() *VirtualClock { return &VirtualClock{} }

// Now implements Clock.
func (c *VirtualClock) Now() time.Time { return time.Time{}.Add(time.Duration(c.offset.Load())) }

// Sleep implements Clock: it advances the clock without blocking.
func (c *VirtualClock) Sleep(d time.Duration) {
	if d > 0 {
		c.offset.Add(int64(d))
	}
}
