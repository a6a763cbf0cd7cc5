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
func (c *Clock) Sleep(d time.Duration) { c.SleepFrom(time.Time{}, d) }

// SleepFrom is Sleep for a delay that began at start (the zero time: now),
// for a goroutine woken after its delay began: it sleeps only what is left of
// d, scaled, and accounts all of d.
func (c *Clock) SleepFrom(start time.Time, d time.Duration) {
	if d <= 0 {
		return
	}
	c.spent.Add(int64(d))
	if c.scale == 0 {
		return
	}
	if start.IsZero() {
		start = time.Now()
	}
	preciseSleep(start, time.Duration(int64(d)*c.scale/1e6))
}

// VirtualSpent reports the total unscaled virtual time slept so far, for
// diagnostics.
func (c *Clock) VirtualSpent() time.Duration {
	return time.Duration(c.spent.Load())
}

// preciseSleep sleeps until d after start with ~10µs accuracy: long waits use
// time.Sleep, the final stretch spins. The spin ceiling keeps CPU burn
// bounded. The spin yields the processor on every check: simulated latencies
// model time passing, not CPU consumption (CPU contention is modelled by core
// tokens), so concurrent sleeps must make progress together even when the host
// has fewer cores than sleepers — on a single-core machine a tight spin would
// serialize every overlapping latency and distort all concurrency effects.
func preciseSleep(start time.Time, d time.Duration) {
	const spinWindow = 150 * time.Microsecond
	if left := d - time.Since(start); left > spinWindow {
		time.Sleep(left - spinWindow)
	}
	for time.Since(start) < d {
		runtime.Gosched()
	}
}
