package query

import "time"

// Deadline is an absolute give-up time for a request. The zero Deadline
// means "no deadline" and never expires — requests without one behave
// exactly as before deadlines existed. Deadlines are wall-clock absolute
// (not durations) so they survive hops across the wire, admission and the
// layers below it without re-arming.
type Deadline struct {
	t time.Time
}

// After returns a deadline d from now. Non-positive d yields an
// already-expired deadline, not a zero one.
func After(d time.Duration) Deadline { return Deadline{t: time.Now().Add(d)} }

// IsZero reports whether no deadline is set.
func (d Deadline) IsZero() bool { return d.t.IsZero() }

// Expired reports whether the deadline is set and has passed.
func (d Deadline) Expired() bool {
	return !d.t.IsZero() && !time.Now().Before(d.t)
}

// Remaining returns the time left until the deadline: negative once
// expired, and an effectively infinite duration when no deadline is set
// (so min-style comparisons treat "none" as latest).
func (d Deadline) Remaining() time.Duration {
	if d.t.IsZero() {
		return time.Duration(1<<63 - 1)
	}
	return time.Until(d.t)
}

// Time returns the absolute deadline and whether one is set.
func (d Deadline) Time() (time.Time, bool) { return d.t, !d.t.IsZero() }

// UnixNanos encodes the deadline for the wire: absolute Unix nanoseconds,
// 0 when unset.
func (d Deadline) UnixNanos() int64 {
	if d.t.IsZero() {
		return 0
	}
	return d.t.UnixNano()
}

// FromUnixNanos decodes a wire deadline (0 = none).
func FromUnixNanos(n int64) Deadline {
	if n == 0 {
		return Deadline{}
	}
	return Deadline{t: time.Unix(0, n)}
}
