// Package simclock provides the scaled, precise sleeping used by the
// simulated database substrate. All simulated latencies are expressed in
// microsecond-scale base durations and multiplied by the clock's scale,
// fixed at construction, so experiments can trade wall-clock time for
// resolution without changing the modelled ratios. Sub-200µs sleeps are
// finished with a short spin to avoid the OS timer-granularity floor
// distorting small latencies.
package simclock

import (
	"runtime"
	"sync/atomic"
	"time"
)

// Clock scales and executes simulated delays. A zero scale disables sleeping
// entirely (useful in logic tests), while still accounting the virtual time.
type Clock struct {
	scale int64        // scale * 1e6
	spent atomic.Int64 // accumulated virtual nanoseconds (unscaled)
}

// New returns a clock with the given scale factor (1.0 = real microseconds).
func New(scale float64) *Clock {
	return &Clock{scale: int64(scale * 1e6)}
}

// Sleep pauses for d scaled by the clock's factor and accounts the unscaled
// virtual time.
func (c *Clock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	c.spent.Add(int64(d))
	s := c.scale
	if s == 0 {
		return
	}
	scaled := time.Duration(int64(d) * s / 1e6)
	preciseSleep(scaled)
}

// VirtualSpent reports the total unscaled virtual time slept so far, for
// diagnostics.
func (c *Clock) VirtualSpent() time.Duration {
	return time.Duration(c.spent.Load())
}

// preciseSleep sleeps with ~10µs accuracy: long waits use time.Sleep, the
// final stretch spins. The spin ceiling keeps CPU burn bounded. The spin
// yields the processor on every check: simulated latencies model time
// passing, not CPU consumption (CPU contention is modelled by core tokens),
// so concurrent sleeps must make progress together even when the host has
// fewer cores than sleepers — on a single-core machine a tight spin would
// serialize every overlapping latency and distort all concurrency effects.
func preciseSleep(d time.Duration) {
	if d <= 0 {
		return
	}
	const spinWindow = 150 * time.Microsecond
	start := time.Now()
	if d > spinWindow {
		time.Sleep(d - spinWindow)
	}
	for time.Since(start) < d {
		runtime.Gosched()
	}
}
