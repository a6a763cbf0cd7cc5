package replica

import (
	"bytes"
	"fmt"
	"reflect"
	"regexp"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/wal"
)

// A traced read that fails over hangs one "replica.read" child per attempt
// off the caller's span — siblings, labelled with the faulted replica and
// then the copy that served — and leaves the caller's span on the call:
// readOn re-scopes the call in place and must put the span back before the
// next attempt.
func TestFailoverReadSpansAreSiblings(t *testing.T) {
	g := newGroup(t, 2)
	g.rr.Store(0) // the next pick starts at replica 1
	g.Replicas()[1].FailNext(1)
	tr := obs.NewTracer(nil)
	var slow bytes.Buffer
	tr.SetSlowLog(1, &slow) // renders every root's tree with its labels
	root := tr.Start("request")
	c := &query.Call{Request: query.Req("q", sel, []any{int64(7)}).WithSpan(root)}
	var rep query.Reply
	g.Do(c, &rep)
	if c.Span != root {
		t.Fatal("the call does not carry the caller's span after Do")
	}
	root.End()
	if rep.Err != nil {
		t.Fatalf("read must fail over, got %v", rep.Err)
	}
	kids := root.Children()
	if len(kids) != 2 || kids[0].Name() != "replica.read" || kids[1].Name() != "replica.read" {
		t.Fatalf("caller's span has %d children, want two replica.read siblings:\n%s", len(kids), slow.String())
	}
	var labels []string
	for _, m := range regexp.MustCompile(`(?m)^    replica\.read .*\[(.*)\]$`).FindAllStringSubmatch(slow.String(), -1) {
		labels = append(labels, m[1])
	}
	if want := []string{"replica 1", "replica 0"}; !reflect.DeepEqual(labels, want) {
		t.Fatalf("replica.read labels %q, want %q:\n%s", labels, want, slow.String())
	}
	if tr.Open() != 0 {
		t.Fatalf("%d spans left open", tr.Open())
	}
}

// A read fault trips the replica's breaker; the half-open probe (a Recover)
// brings it back without any manual intervention, and the obs registry sees
// the trip, the probe, and the gauge returning to zero.
func TestBreakerTripsAndProbesBackIn(t *testing.T) {
	reg := obs.NewRegistry()
	g := newGroupOpts(t, Options{
		Replicas: 2,
		Breaker:  2 * time.Millisecond,
	})
	g.RegisterMetrics(reg, "")

	g.Replicas()[0].FailNext(1)
	for i := int64(0); g.Resilience().BreakerTrips == 0 && i < 10; i++ {
		if _, err := g.Exec(query.Req("q", sel, []any{i})).Pair(); err != nil {
			t.Fatalf("read must fail over, got %v", err)
		}
	}
	if g.Resilience().BreakerTrips != 1 {
		t.Fatalf("trips=%d, want 1", g.Resilience().BreakerTrips)
	}

	deadline := time.Now().Add(2 * time.Second)
	for g.Resilience().OpenBreakers != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("breaker never closed: %+v", g.Resilience())
		}
		time.Sleep(time.Millisecond)
	}
	if st := g.Resilience(); st.BreakerProbes < 1 {
		t.Fatalf("probes=%d, want ≥1", st.BreakerProbes)
	}
	// The recovered replica serves again: spread reads and check both copies
	// take some.
	for i := int64(0); i < 20; i++ {
		if _, err := g.Exec(query.Req("q", sel, []any{i})).Pair(); err != nil {
			t.Fatal(err)
		}
	}
	counts := g.ReadCounts()
	if counts[0] == 0 || counts[1] == 0 {
		t.Fatalf("recovered replica serves no reads: %v", counts)
	}
	if reg.Counter("replica.breaker.trips").Load() != 1 ||
		reg.Counter("replica.breaker.probes").Load() < 1 {
		t.Fatalf("obs mirror: trips=%d probes=%d",
			reg.Counter("replica.breaker.trips").Load(),
			reg.Counter("replica.breaker.probes").Load())
	}
	if reg.Gauge("replica.breaker.open").Load() != 0 {
		t.Fatalf("open gauge %v, want 0", reg.Gauge("replica.breaker.open").Load())
	}
}

// An injected ReplicaCrash fires on a read decision, fails that replica out
// through the normal machinery, and the read still answers correctly from a
// surviving copy.
func TestReplicaCrashInjectionFailsOver(t *testing.T) {
	inj := fault.New(11).At(fault.ReplicaCrash, 1)
	g := newGroupOpts(t, Options{
		Replicas: 2,
		Breaker:  time.Millisecond,
		Fault:    inj,
	})
	for i := int64(0); i < 10; i++ {
		v, err := g.Exec(query.Req("q", sel, []any{i})).Pair()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		want := fmt.Sprintf("v%d", i)
		if rs, ok := v.(interp.Rows); !ok || len(rs) != 1 || rs[0]["val"] != want {
			t.Fatalf("read %d answered %v, want val=%s", i, interp.Format(v), want)
		}
	}
	if inj.Fired(fault.ReplicaCrash) != 1 {
		t.Fatalf("replica-crash fired %d, want 1", inj.Fired(fault.ReplicaCrash))
	}
	if g.Resilience().BreakerTrips != 1 {
		t.Fatalf("trips=%d, want 1 (the crashed attempt)", g.Resilience().BreakerTrips)
	}
}

// With the breaker disabled (the zero options), the historical contract
// holds: a faulted replica stays out of rotation until a manual Recover.
func TestBreakerDisabledKeepsReplicaDown(t *testing.T) {
	g := newGroup(t, 2)
	g.Replicas()[0].FailNext(1)
	for i := int64(0); i < 4; i++ {
		if _, err := g.Exec(query.Req("q", sel, []any{i})).Pair(); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(30 * time.Millisecond) // longer than any default cooldown
	if h := g.Healthy(); h[0] {
		t.Fatal("replica 0 must stay down without a breaker")
	}
	if st := g.Resilience(); st.BreakerTrips != 0 || st.BreakerProbes != 0 {
		t.Fatalf("breaker activity without a breaker: %+v", st)
	}
	if err := g.Recover(0); err != nil {
		t.Fatal(err)
	}
	if h := g.Healthy(); !h[0] {
		t.Fatal("manual Recover must readmit the replica")
	}
}

// A replica failed out off the read path — by a write apply that faults —
// trips its breaker like a faulted read does and is probed back in
// byte-identical. With the breaker disabled the historical contract holds:
// out, no breaker activity, until Recover.
func TestBreakerSeesEveryFailOut(t *testing.T) {
	faultNextApply := func(t *testing.T, g *Group) {
		g.Replicas()[0].FailNext(1)
		mustInsert(t, g, 100)
	}
	cases := []struct {
		name    string
		failOut func(t *testing.T, g *Group)
	}{
		{"sync write apply", faultNextApply},
	}
	// await polls cond: the fail-out and the probe run on other goroutines.
	await := func(t *testing.T, what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(200 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	for _, c := range cases {
		for _, enabled := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/breaker=%v", c.name, enabled), func(t *testing.T) {
				var cooldown time.Duration
				if enabled {
					cooldown = time.Millisecond
				}
				g := newGroupOpts(t, Options{Replicas: 2, Breaker: cooldown})
				c.failOut(t, g)
				await(t, "the fail-out", func() bool { return g.Faults()[0] == 1 })
				if !enabled {
					if st := g.Resilience(); st.BreakerTrips != 0 || st.BreakerProbes != 0 || g.Healthy()[0] {
						t.Fatalf("without a breaker the replica stays out until Recover: healthy=%v %+v", g.Healthy(), st)
					}
					if err := g.Recover(0); err != nil {
						t.Fatal(err)
					}
				}
				await(t, "readmission", func() bool { return g.Healthy()[0] && g.Resilience().OpenBreakers == 0 })
				if st := g.Resilience(); enabled && st.BreakerTrips < 1 {
					t.Fatalf("fail-out never tripped the breaker: %+v", st)
				}
				for i, a := range g.AppliedLSNs() {
					if a != g.CommitLSN() {
						t.Fatalf("replica %d applied LSN %d, commit LSN %d", i, a, g.CommitLSN())
					}
				}
				got := wal.Capture(g.Replicas()[0].Catalog(), 0)
				if want := wal.Capture(g.Primary().Catalog(), 0); !reflect.DeepEqual(got, want) {
					t.Fatalf("readmitted replica differs from the primary:\n got %+v\nwant %+v", got, want)
				}
			})
		}
	}
}

// Options.Fault also arms the group's log store: an injected fsync error
// fires at the group's first commit, and the flusher's retry still
// acknowledges the insert.
func TestFaultArmsTheLogStore(t *testing.T) {
	inj := fault.New(12).At(fault.SyncErr, 1)
	g := newGroupOpts(t, Options{Replicas: 1, Fault: inj})
	mustInsert(t, g, 100)
	if inj.Fired(fault.SyncErr) != 1 || g.WALStats().SyncErrors != 1 {
		t.Fatalf("sync-err fired %d, WAL saw %d sync errors; want 1 and 1",
			inj.Fired(fault.SyncErr), g.WALStats().SyncErrors)
	}
}
