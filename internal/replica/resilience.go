package replica

import (
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/fault"
)

// Breaker states. The per-replica state lives in state.bstate, guarded by
// state.bmu (transitions are rare; a mutex keeps the trip/probe/fail-out
// races straightforward to reason about).
const (
	bkClosed int32 = iota
	bkOpen
	bkHalfOpen
)

// resCounters are the group's resilience counters, mirrored into the obs
// registry (when one is attached) under the replica.* names.
type resCounters struct {
	breakerTrips  atomic.Int64
	breakerProbes atomic.Int64
}

// ResilienceStats is a snapshot of the group's breaker activity.
type ResilienceStats struct {
	BreakerTrips  int64 // fail-outs that tripped a closed breaker open
	BreakerProbes int64 // half-open probes fired (each probe is a Recover)
	OpenBreakers  int64 // breakers currently open or half-open
}

// Resilience returns the group's breaker counters.
func (g *Group) Resilience() ResilienceStats {
	return ResilienceStats{
		BreakerTrips:  g.res.breakerTrips.Load(),
		BreakerProbes: g.res.breakerProbes.Load(),
		OpenBreakers:  g.openBreakers.Load(),
	}
}

// bump increments an internal counter and its obs mirror.
func (g *Group) bump(c *atomic.Int64, name string) {
	c.Add(1)
	if reg := g.reg.Load(); reg != nil {
		reg.Counter(name).Add(1)
	}
}

// setOpenGauge publishes the open-breaker count to the obs registry.
func (g *Group) setOpenGauge() {
	if reg := g.reg.Load(); reg != nil {
		reg.Gauge("replica.breaker.open").Set(float64(g.openBreakers.Load()))
	}
}

// guardGo spawns a group-owned goroutine tracked by bgWg, refusing once the
// group is closed (Close waits for every goroutine spawned this way before
// tearing down the log and the copies).
func (g *Group) guardGo(fn func()) {
	g.bgMu.Lock()
	if g.closed.Load() {
		g.bgMu.Unlock()
		return
	}
	g.bgWg.Add(1)
	g.bgMu.Unlock()
	go func() {
		defer g.bgWg.Done()
		fn()
	}()
}

// crashMaybe consults the group's fault injector before a read attempt on
// replica i: a ReplicaCrash decision arms the replica to fail its next
// request, which the normal fail-out / breaker machinery then absorbs. Injection happens before the replica executes, so a crashed
// attempt has no side effects to undo.
func (g *Group) crashMaybe(i int) {
	if g.fault.Should(fault.ReplicaCrash) {
		g.replica(i).FailNext(1)
	}
}

// failOut is the one way the health tracker takes replica i out of rotation
// — read's faulted attempt and apply's first error both land here — so
// Faults counts every one and, when the
// breaker is armed (Options.Breaker), every one trips it and schedules the
// half-open probe. Only a closed breaker trips (and counts); an open or
// half-open one already has a probe in flight. (Administrative FailOut and
// CrashPrimary's taint are operator decisions, not observations: they store
// the flag themselves.)
func (g *Group) failOut(i int) {
	st := g.states[i]
	st.faults.Add(1)
	st.healthy.Store(false)
	if g.breaker <= 0 {
		return
	}
	st.bmu.Lock()
	trip := st.bstate == bkClosed
	if trip {
		st.bstate = bkOpen
	}
	st.bmu.Unlock()
	if trip {
		g.openBreakers.Add(1)
		g.bump(&g.res.breakerTrips, "replica.breaker.trips")
		g.setOpenGauge()
		g.scheduleProbe(i)
	}
}

func (g *Group) scheduleProbe(i int) {
	g.guardGo(func() { g.probe(i) })
}

// errProbeLost marks a probe whose Recover succeeded but lost a race with a
// concurrent fail-out: the replica is unhealthy again, so the breaker stays
// open and another probe is scheduled.
var errProbeLost = errors.New("replica: probe raced a concurrent fault")

// probe waits out the cooldown, then half-opens the breaker and attempts a
// Recover. Recover replays the exact log suffix the replica missed, so a
// successful probe closes the breaker on a byte-identical copy. Failure
// reopens and reschedules.
func (g *Group) probe(i int) {
	t := time.NewTimer(g.breaker)
	defer t.Stop()
	select {
	case <-t.C:
	case <-g.stop:
		return
	}
	st := g.states[i]
	st.bmu.Lock()
	st.bstate = bkHalfOpen
	st.bmu.Unlock()
	g.bump(&g.res.breakerProbes, "replica.breaker.probes")
	err := g.Recover(i)
	st.bmu.Lock()
	if err == nil && !st.healthy.Load() {
		err = errProbeLost
	}
	if err != nil {
		st.bstate = bkOpen
	} else {
		st.bstate = bkClosed
	}
	st.bmu.Unlock()
	if err != nil {
		g.scheduleProbe(i)
		return
	}
	g.openBreakers.Add(-1)
	g.setOpenGauge()
}
