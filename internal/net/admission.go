package net

import (
	"sync/atomic"

	"repro/internal/obs"
)

// Admission is the front door's inflight budget: a fixed number of
// requests may be executing (or queued behind the executor) at once, and
// a request arriving past the budget is shed immediately with
// query.ErrOverloaded instead of joining an unbounded queue. Shedding is
// the tail-latency contract: under overload the p999 of *admitted*
// requests stays bounded by the work the budget represents, and the
// overflow surfaces as explicit, retryable errors — not as requests
// silently aging in a queue. A batch costs one slot per member, since
// that is the work it puts on the executor; a batch larger than the whole
// budget is admitted when nothing else is in flight and then runs alone —
// refusing it whenever it arrives would make a retryable error permanent.
//
// The zero budget (limit <= 0) admits everything; Admission is then pure
// accounting.
type Admission struct {
	limit    int64
	inflight atomic.Int64
	admitted atomic.Int64
	shed     atomic.Int64
}

// NewAdmission builds a budget admitting at most limit concurrent request
// units (limit <= 0 = unlimited).
func NewAdmission(limit int) *Admission {
	return &Admission{limit: int64(limit)}
}

// TryAcquire claims n units. It either claims all n and returns true, or
// claims nothing and returns false (the request must be shed) — a batch is
// admitted or shed whole, never half. On an idle budget any n is claimed.
func (a *Admission) TryAcquire(n int) bool {
	if n <= 0 {
		n = 1
	}
	if a.limit > 0 {
		for {
			cur := a.inflight.Load()
			if cur+int64(n) > a.limit && cur > 0 {
				a.shed.Add(1)
				return false
			}
			if a.inflight.CompareAndSwap(cur, cur+int64(n)) {
				break
			}
		}
	} else {
		a.inflight.Add(int64(n))
	}
	a.admitted.Add(1)
	return true
}

// Release returns n units to the budget; call exactly once per successful
// TryAcquire, with the same n. Releasing is what un-sheds: the next
// TryAcquire after a release sees the freed slots.
func (a *Admission) Release(n int) {
	if n <= 0 {
		n = 1
	}
	a.inflight.Add(int64(-n))
}

// Inflight returns the currently claimed units.
func (a *Admission) Inflight() int64 { return a.inflight.Load() }

// Admitted returns how many requests TryAcquire has admitted.
func (a *Admission) Admitted() int64 { return a.admitted.Load() }

// Shed returns how many requests TryAcquire has refused.
func (a *Admission) Shed() int64 { return a.shed.Load() }

// RegisterMetrics exposes the budget as gauges/counters under prefix
// (e.g. "net.admission.") in reg.
func (a *Admission) RegisterMetrics(reg *obs.Registry, prefix string) {
	if reg == nil {
		return
	}
	reg.RegisterSource(prefix+"admission", func() map[string]float64 {
		return map[string]float64{
			prefix + "admission.limit":    float64(a.limit),
			prefix + "admission.inflight": float64(a.Inflight()),
			prefix + "admission.admitted": float64(a.Admitted()),
			prefix + "admission.shed":     float64(a.Shed()),
		}
	})
}
