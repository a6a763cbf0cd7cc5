package replica

import (
	"errors"
	"fmt"
	"repro/internal/query"
	"sync"
	"testing"

	"repro/internal/interp"
	"repro/internal/server"
	"repro/internal/wal"
)

// mustInsert acknowledges one row through the group write path.
func mustInsert(t *testing.T, g *Group, id int64) {
	t.Helper()
	if _, err := g.Exec(query.Req("w", ins, []any{id, fmt.Sprintf("v%d", id)})).Pair(); err != nil {
		t.Fatalf("insert %d: %v", id, err)
	}
}

// wantVal asserts a read returns v<id>.
func wantVal(t *testing.T, g *Group, id int64) {
	t.Helper()
	v, err := g.Exec(query.Req("q", sel, []any{id})).Pair()
	if err != nil {
		t.Fatalf("read %d: %v", id, err)
	}
	want := fmt.Sprintf("v%d", id)
	if rs, ok := v.(interp.Rows); !ok || len(rs) != 1 || rs[0]["val"] != want {
		t.Fatalf("read %d: got %v, want val=%s", id, interp.Format(v), want)
	}
}

func TestCrashRestartKeepsAcknowledgedWrites(t *testing.T) {
	g := newGroup(t, 2) // sync replication, wal.Group durability
	for i := int64(100); i < 120; i++ {
		mustInsert(t, g, i)
	}
	if g.CommitLSN() != 20 {
		t.Fatalf("commit LSN = %d, want 20", g.CommitLSN())
	}

	g.CrashPrimary()
	if !g.PrimaryDown() {
		t.Fatal("primary should be down")
	}
	if _, err := g.Exec(query.Req("w", ins, []any{int64(999), "x"})).Pair(); !errors.Is(err, ErrPrimaryDown) {
		t.Fatalf("write while down: %v, want ErrPrimaryDown", err)
	}
	// Sync replicas hold the full prefix and keep serving reads.
	wantVal(t, g, 110)

	if err := g.RestartPrimary(); err != nil {
		t.Fatal(err)
	}
	if g.PrimaryDown() {
		t.Fatal("primary should be back up")
	}
	// Every write acknowledged under wal.Group survived the crash.
	if g.CommitLSN() != 20 {
		t.Fatalf("commit LSN after restart = %d, want 20", g.CommitLSN())
	}
	if n := rows("kv", g.Primary()); n != 120 {
		t.Fatalf("restored primary has %d rows, want 120", n)
	}
	for i := int64(0); i < 120; i++ {
		v, err := g.Primary().Exec(query.Req("q", sel, []any{i})).Pair()
		want := fmt.Sprintf("v%d", i)
		if rs, ok := v.(interp.Rows); err != nil || !ok || len(rs) != 1 || rs[0]["val"] != want {
			t.Fatalf("restored primary read %d: %v / %v", i, interp.Format(v), err)
		}
	}
	// Writes resume against the rebuilt primary.
	mustInsert(t, g, 120)
	if g.CommitLSN() != 21 {
		t.Fatalf("post-restart commit LSN = %d, want 21", g.CommitLSN())
	}
	wantVal(t, g, 120)
}

func TestRestartPrimaryWhenUpIsNoop(t *testing.T) {
	g := newGroup(t, 1)
	mustInsert(t, g, 100)
	p := g.Primary()
	if err := g.RestartPrimary(); err != nil {
		t.Fatal(err)
	}
	if g.Primary() != p {
		t.Fatal("restart of a healthy primary must not replace the server")
	}
}

func TestCrashUnderOffLosesOnlyUnsyncedTail(t *testing.T) {
	g := newGroupOpts(t, Options{Replicas: 1, Durability: wal.Off})
	for i := int64(100); i < 130; i++ {
		mustInsert(t, g, i)
	}
	g.CrashPrimary()
	// Off mode acknowledged before fsync: everything past the durable prefix
	// is gone — but nothing durable may be lost, and restart must land
	// exactly on that prefix.
	d := g.Log().DurableLSN()
	if d > 30 {
		t.Fatalf("durable LSN %d exceeds writes issued", d)
	}
	if err := g.RestartPrimary(); err != nil {
		t.Fatal(err)
	}
	if g.CommitLSN() != d {
		t.Fatalf("commit LSN = %d, want durable prefix %d", g.CommitLSN(), d)
	}
	if n := rows("kv", g.Primary()); int64(n) != 100+d {
		t.Fatalf("restored primary has %d rows, want %d", n, 100+d)
	}
	// The sync replica applied all 30 inserts before the crash; if any were
	// dropped, its watermark is a lie and the crash must have tainted it out
	// of rotation. Recover rebuilds it onto the durable prefix either way.
	if d < 30 && g.Healthy()[0] {
		t.Fatal("replica ahead of the durable prefix must be failed out")
	}
	if err := g.Recover(0); err != nil {
		t.Fatal(err)
	}
	if n := rows("kv", g.Replicas()[0]); int64(n) != 100+d {
		t.Fatalf("recovered replica has %d rows, want %d", n, 100+d)
	}
	if a := g.AppliedLSNs()[0]; a != d {
		t.Fatalf("recovered replica applied = %d, want %d", a, d)
	}
}

func TestRecoverHealthyReplicaIsNoop(t *testing.T) {
	g := newGroup(t, 2)
	for i := int64(100); i < 105; i++ {
		mustInsert(t, g, i)
	}
	before := g.AppliedLSNs()
	if err := g.Recover(1); err != nil {
		t.Fatal(err)
	}
	after := g.AppliedLSNs()
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("recover of healthy replica moved applied: %v -> %v", before, after)
		}
	}
	for _, h := range g.Healthy() {
		if !h {
			t.Fatalf("healthy flags disturbed: %v", g.Healthy())
		}
	}
	wantVal(t, g, 104)
}

func TestRecoverReplayFaultMidBacklog(t *testing.T) {
	g := newGroup(t, 2)
	// First backlog: applied cleanly, so the replica sits mid-log.
	g.FailOut(0)
	for i := int64(100); i < 105; i++ {
		mustInsert(t, g, i)
	}
	if err := g.Recover(0); err != nil {
		t.Fatal(err)
	}
	if g.AppliedLSNs()[0] != 5 {
		t.Fatalf("applied after first recover = %v, want 5", g.AppliedLSNs())
	}
	// Second backlog: replay faults on its first record.
	g.FailOut(0)
	for i := int64(105); i < 110; i++ {
		mustInsert(t, g, i)
	}
	g.Replicas()[0].FailNext(1)
	err := g.Recover(0)
	if err == nil || !server.IsFault(err) {
		t.Fatalf("recover through injected fault: %v, want fault", err)
	}
	if g.Healthy()[0] {
		t.Fatal("replica must stay out of rotation after a failed recover")
	}
	if g.AppliedLSNs()[0] != 5 {
		t.Fatalf("failed recover moved applied to %v, want 5", g.AppliedLSNs())
	}
	// The backlog is intact: a clean retry finishes the job.
	if err := g.Recover(0); err != nil {
		t.Fatal(err)
	}
	if g.AppliedLSNs()[0] != 10 || !g.Healthy()[0] {
		t.Fatalf("retry: applied=%v healthy=%v", g.AppliedLSNs(), g.Healthy())
	}
	if n := rows("kv", g.Replicas()[0]); n != 110 {
		t.Fatalf("recovered replica has %d rows, want 110", n)
	}
}

func TestConcurrentRecoverIsSafe(t *testing.T) {
	g := newGroup(t, 2)
	g.FailOut(0)
	g.FailOut(1)
	for i := int64(100); i < 110; i++ {
		mustInsert(t, g, i)
	}
	var wg sync.WaitGroup
	for k := 0; k < 4; k++ {
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if err := g.Recover(i); err != nil {
					t.Errorf("recover %d: %v", i, err)
				}
			}(i)
		}
	}
	wg.Wait()
	for i, a := range g.AppliedLSNs() {
		if a != 10 || !g.Healthy()[i] {
			t.Fatalf("replica %d: applied=%d healthy=%v", i, a, g.Healthy()[i])
		}
	}
	for i := int64(0); i < 30; i++ {
		wantVal(t, g, i%110)
	}
}

// replicate applies a record to the replicas in parallel, so one replica can
// serve LSN n while another is still at n-1. Once a read was served at n, the
// group's served floor keeps every later read off the replica at n-1 until
// its watermark reaches n: reads never travel backwards.
func TestServedFloorHoldsOffALaggingReplica(t *testing.T) {
	g := newGroup(t, 2)
	mustInsert(t, g, 100)
	n := g.CommitLSN()
	// Replica 1's apply of LSN n is still in flight, as replicate leaves it.
	g.states[1].applied.Store(n - 1)
	for first := g.ReadCounts()[0]; g.ReadCounts()[0] == first; {
		wantVal(t, g, 100)
	}
	lagging := g.ReadCounts()[1]
	for k := 0; k < 8; k++ {
		wantVal(t, g, 100)
	}
	if got := g.ReadCounts()[1]; got != lagging {
		t.Fatalf("replica at LSN %d served %d reads after a read was served at %d", n-1, got-lagging, n)
	}
	// The apply lands: replica 1 qualifies again.
	g.states[1].applied.Store(n)
	for k := 0; k < 2; k++ {
		wantVal(t, g, 100)
	}
	if g.ReadCounts()[1] == lagging {
		t.Fatalf("replica 1 caught up to LSN %d but served no read: %v", n, g.ReadCounts())
	}
}
