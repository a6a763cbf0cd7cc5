package replica

import (
	"fmt"
	"math"
	"repro/internal/query"
	"sync"
	"testing"

	"repro/internal/interp"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/wal"
)

// loadTable bulk-loads one table onto every copy of g through the copier.
func loadTable(t *testing.T, g *Group, src wal.TableSource) {
	t.Helper()
	if _, err := wal.Copy([][]*server.Server{g.Copies()}, []wal.TableSource{src}, nil); err != nil {
		t.Fatal(err)
	}
}

// newGroupOpts builds a group over scale-0 servers with a small kv table
// loaded on every copy: 100 rows (id, val), unique index on id.
func newGroupOpts(t *testing.T, opts Options) *Group {
	t.Helper()
	g := NewGroup(server.SYS1(), 0, opts)
	t.Cleanup(g.Close)
	schema := storage.NewSchema(
		storage.Column{Name: "id", Type: storage.TInt},
		storage.Column{Name: "val", Type: storage.TString},
	)
	rows := storage.NewTable("kv", schema, 0)
	for i := 0; i < 100; i++ {
		if _, err := rows.Insert([]any{int64(i), fmt.Sprintf("v%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	src := wal.TableSource{Name: "kv", Schema: schema, RowsPerPage: 8, Indexes: []wal.IndexDef{{Column: "id", Unique: true}}}
	rows.ViewInto(&src.View)
	loadTable(t, g, src)
	return g
}

// newGroup is newGroupOpts for a synchronous group.
func newGroup(t *testing.T, replicas int) *Group {
	t.Helper()
	return newGroupOpts(t, Options{Replicas: replicas})
}

const sel = "select val from kv where id = ?"
const ins = "insert into kv values (?, ?)"

func rows(table string, s *server.Server) int {
	return s.Catalog().Table(table).NumRows()
}

func TestReadsRoundRobinAcrossReplicas(t *testing.T) {
	g := newGroup(t, 3)
	for i := int64(0); i < 30; i++ {
		v, err := g.Exec(query.Req("q", sel, []any{i % 100})).Pair()
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("v%d", i%100)
		if rs, ok := v.(interp.Rows); !ok || len(rs) != 1 || rs[0]["val"] != want {
			t.Fatalf("read %d: got %v, want val=%s", i, interp.Format(v), want)
		}
	}
	counts := g.ReadCounts()
	for i, c := range counts {
		if c != 10 {
			t.Fatalf("round-robin balance off: replica %d served %d of 30, counts %v", i, c, counts)
		}
	}
	// The primary served no reads.
	if q := g.Primary().Stats().Queries; q != 0 {
		t.Fatalf("primary served %d reads; replicas should take them all", q)
	}
}

func TestWritesReplicateSynchronously(t *testing.T) {
	g := newGroup(t, 2)
	for i := int64(100); i < 120; i++ {
		if _, err := g.Exec(query.Req("ins", ins, []any{i, fmt.Sprintf("v%d", i)})).Pair(); err != nil {
			t.Fatal(err)
		}
	}
	if n := rows("kv", g.Primary()); n != 120 {
		t.Fatalf("primary has %d rows, want 120", n)
	}
	for i, rep := range g.Replicas() {
		if n := rows("kv", rep); n != 120 {
			t.Fatalf("replica %d has %d rows, want 120", i, n)
		}
	}
	// Read the new rows back through the replicas.
	for i := int64(100); i < 120; i++ {
		v, err := g.Exec(query.Req("q", sel, []any{i})).Pair()
		if err != nil {
			t.Fatal(err)
		}
		if rs := v.(interp.Rows); rs[0]["val"] != fmt.Sprintf("v%d", i) {
			t.Fatalf("read-back id=%d: %v", i, interp.Format(v))
		}
	}
}

// TestReplicaFaultFailsOverWithoutResultChange pins the failover contract:
// a replica that dies mid-read is failed out and the read retries on a
// surviving copy, returning exactly what a healthy group returns.
func TestReplicaFaultFailsOverWithoutResultChange(t *testing.T) {
	g := newGroup(t, 2)
	want, err := g.Exec(query.Req("q", sel, []any{int64(7)})).Pair()
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range g.Replicas() {
		rep.FailNext(1)
	}
	got, err := g.Exec(query.Req("q", sel, []any{int64(7)})).Pair()
	if err != nil {
		t.Fatalf("failover read errored: %v", err)
	}
	if !interp.Equal(want, got) {
		t.Fatalf("failover changed the result: %v vs %v", interp.Format(want), interp.Format(got))
	}
	// Both replicas consumed their fault on the way: one on the first
	// attempt, the second on the retry — and the primary served the read.
	healthy := g.Healthy()
	if healthy[0] || healthy[1] {
		t.Fatalf("faulted replicas still in rotation: %v", healthy)
	}
	var faults int64
	for _, f := range g.Faults() {
		faults += f
	}
	if faults != 2 {
		t.Fatalf("recorded %d faults, want 2", faults)
	}
}

// TestReplicaKilledMidBatch pins batch failover: the whole binding set
// retries on a surviving copy and demultiplexes identically.
func TestReplicaKilledMidBatch(t *testing.T) {
	g := newGroup(t, 2)
	argSets := make([][]any, 16)
	for i := range argSets {
		argSets[i] = []any{int64(i * 3 % 100)}
	}
	wantVals, wantErrs := g.ExecBatch(query.BatchReq("q", sel, argSets)).Pair()
	for i, err := range wantErrs {
		if err != nil {
			t.Fatalf("baseline binding %d: %v", i, err)
		}
	}
	// Kill the next replica the rotation will pick, mid-batch.
	for _, rep := range g.Replicas() {
		rep.FailNext(1)
	}
	gotVals, gotErrs := g.ExecBatch(query.BatchReq("q", sel, argSets)).Pair()
	for i := range argSets {
		if gotErrs[i] != nil {
			t.Fatalf("binding %d errored after failover: %v", i, gotErrs[i])
		}
		if !interp.Equal(wantVals[i], gotVals[i]) {
			t.Fatalf("binding %d: %v vs %v", i,
				interp.Format(wantVals[i]), interp.Format(gotVals[i]))
		}
	}
	if h := g.Healthy(); h[0] || h[1] {
		t.Fatalf("faulted replicas still in rotation: %v", h)
	}
}

// TestAllCopiesDownErrorFidelity pins the error contract: when every
// replica AND the primary are down, the group surfaces exactly the error a
// failing single server produces — no replica vocabulary leaks out.
func TestAllCopiesDownErrorFidelity(t *testing.T) {
	single := server.New(server.SYS1(), 0)
	defer single.Close()
	single.FailNext(1)
	_, wantErr := single.Exec(query.Req("q", sel, []any{int64(1)})).Pair()
	if wantErr == nil {
		t.Fatal("single server did not fault")
	}

	g := newGroup(t, 2)
	for _, rep := range g.Replicas() {
		rep.FailNext(1)
	}
	g.Primary().FailNext(1)
	_, gotErr := g.Exec(query.Req("q", sel, []any{int64(1)})).Pair()
	if gotErr == nil {
		t.Fatal("fully failed group did not error")
	}
	if gotErr.Error() != wantErr.Error() {
		t.Fatalf("error text: group %q, single server %q", gotErr, wantErr)
	}
	if !server.IsFault(gotErr) {
		t.Fatalf("expected an injected fault, got %v", gotErr)
	}

	// Batch path: same fidelity, per binding.
	single.FailNext(1)
	_, wantErrs := single.ExecBatch(query.BatchReq("q", sel, [][]any{{int64(1)}, {int64(2)}})).Pair()
	g2 := newGroup(t, 2)
	for _, rep := range g2.Replicas() {
		rep.FailNext(1)
	}
	g2.Primary().FailNext(1)
	_, gotErrs := g2.ExecBatch(query.BatchReq("q", sel, [][]any{{int64(1)}, {int64(2)}})).Pair()
	for i := range wantErrs {
		if gotErrs[i] == nil || gotErrs[i].Error() != wantErrs[i].Error() {
			t.Fatalf("batch binding %d: group %v, single server %v", i, gotErrs[i], wantErrs[i])
		}
	}
}

// TestStatementErrorsDoNotTriggerFailover pins the fault/error distinction:
// a validation error is data-independent, returns from the first replica
// asked, and must not cost that replica its rotation slot.
func TestStatementErrorsDoNotTriggerFailover(t *testing.T) {
	g := newGroup(t, 2)
	single := server.New(server.SYS1(), 0)
	defer single.Close()
	for _, q := range []string{
		"select nope from kv where id = ?",
		"select val from nosuch where id = ?",
		"delete from kv",
	} {
		_, wantErr := single.Exec(query.Req("q", q, []any{int64(1)})).Pair()
		_, gotErr := g.Exec(query.Req("q", q, []any{int64(1)})).Pair()
		// The single server has no kv table, so compare only the statements
		// whose error is schema-independent.
		if q == "delete from kv" && (gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error()) {
			t.Fatalf("parse error text: group %v, single %v", gotErr, wantErr)
		}
		if gotErr == nil {
			t.Fatalf("%s: expected an error", q)
		}
	}
	for i, h := range g.Healthy() {
		if !h {
			t.Fatalf("statement errors failed replica %d out of rotation", i)
		}
	}
}

// TestReplicaRejoinAfterRecovery pins the replay contract: a failed-out
// replica misses writes, Recover replays them in order, and the rejoined
// replica serves reads over the complete data.
func TestReplicaRejoinAfterRecovery(t *testing.T) {
	g := newGroup(t, 2)
	g.FailOut(0)
	for i := int64(100); i < 130; i++ {
		if _, err := g.Exec(query.Req("ins", ins, []any{i, fmt.Sprintf("v%d", i)})).Pair(); err != nil {
			t.Fatal(err)
		}
	}
	if n := rows("kv", g.Replicas()[0]); n != 100 {
		t.Fatalf("down replica applied writes: %d rows, want 100", n)
	}
	if n := rows("kv", g.Replicas()[1]); n != 130 {
		t.Fatalf("healthy replica missed writes: %d rows, want 130", n)
	}
	if err := g.Recover(0); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if n := rows("kv", g.Replicas()[0]); n != 130 {
		t.Fatalf("recovered replica has %d rows, want 130", n)
	}
	// Force reads onto the rejoined replica and check the replayed data.
	g.FailOut(1)
	for i := int64(100); i < 130; i++ {
		v, err := g.Exec(query.Req("q", sel, []any{i})).Pair()
		if err != nil {
			t.Fatal(err)
		}
		if rs := v.(interp.Rows); len(rs) != 1 || rs[0]["val"] != fmt.Sprintf("v%d", i) {
			t.Fatalf("replayed row id=%d reads back as %v", i, interp.Format(v))
		}
	}
	if c := g.ReadCounts(); c[0] == 0 {
		t.Fatalf("rejoined replica served no reads: %v", c)
	}
}

// TestRecoverReplayFaultKeepsReplicaDown: a fault during backlog replay
// leaves the replica out of rotation with the unreplayed suffix intact, and
// a second Recover finishes the job.
func TestRecoverReplayFaultKeepsReplicaDown(t *testing.T) {
	g := newGroup(t, 1)
	g.FailOut(0)
	for i := int64(100); i < 105; i++ {
		if _, err := g.Exec(query.Req("ins", ins, []any{i, fmt.Sprintf("v%d", i)})).Pair(); err != nil {
			t.Fatal(err)
		}
	}
	g.Replicas()[0].FailNext(1) // the first replay batch faults
	if err := g.Recover(0); err == nil || !server.IsFault(err) {
		t.Fatalf("recover should surface the replay fault, got %v", err)
	}
	if g.Healthy()[0] {
		t.Fatal("replica rejoined despite a failed replay")
	}
	if err := g.Recover(0); err != nil {
		t.Fatalf("second recover: %v", err)
	}
	if !g.Healthy()[0] {
		t.Fatal("replica still down after a clean replay")
	}
	if n := rows("kv", g.Replicas()[0]); n != 105 {
		t.Fatalf("replayed replica has %d rows, want 105", n)
	}
}

// TestConcurrentReadsWritesAndFailover drives the group from many
// goroutines while replicas die and rejoin — the -race exercise for the
// health tracker and the write lock.
func TestConcurrentReadsWritesAndFailover(t *testing.T) {
	g := newGroup(t, 3)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if i%10 == 0 {
					id := int64(1000 + w*100 + i)
					if _, err := g.Exec(query.Req("ins", ins, []any{id, "x"})).Pair(); err != nil {
						t.Errorf("insert: %v", err)
						return
					}
					continue
				}
				if _, err := g.Exec(query.Req("q", sel, []any{int64(i % 100)})).Pair(); err != nil {
					t.Errorf("read: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 10; k++ {
			g.Replicas()[k%3].FailNext(1)
			_ = g.Recover(k % 3)
		}
	}()
	wg.Wait()
	// The loop can end with a copy out of rotation and a fault still armed:
	// a read consumed one fault, the loop re-armed the copy before that read
	// failed it out, and the loop's Recover was a no-op on a healthy copy.
	// Disarm every copy, or the final Recover replays into that fault.
	for _, rep := range g.Replicas() {
		rep.FailNext(0)
	}
	// Whatever the interleaving, every copy converges after a final recover.
	for i := range g.Replicas() {
		if err := g.Recover(i); err != nil {
			t.Fatalf("final recover %d: %v", i, err)
		}
	}
	want := rows("kv", g.Primary())
	for i, rep := range g.Replicas() {
		if n := rows("kv", rep); n != want {
			t.Fatalf("replica %d has %d rows, primary %d", i, n, want)
		}
	}
}

// The aggregate carries the disks' mean queue depth as the request-weighted
// mean over the copies (it used to be dropped, so the registry's
// "group: disk.avg.queue" was always 0).
func TestStatsCarriesRequestWeightedAvgQueue(t *testing.T) {
	g := newGroup(t, 2)
	g.ColdStart()
	for i := int64(0); i < 40; i++ {
		if res := g.Exec(query.Req("q", sel, []any{i})); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	var depth, requests float64
	for _, c := range g.Copies() {
		s := c.Stats()
		depth += s.Disk.AvgQueue * float64(s.Disk.Requests)
		requests += float64(s.Disk.Requests)
	}
	if requests == 0 {
		t.Fatal("cold reads reached no disk")
	}
	got, want := g.Stats().Disk.AvgQueue, depth/requests
	if got <= 0 || math.Abs(got-want) > 1e-9 {
		t.Fatalf("aggregate AvgQueue = %v, want the request-weighted mean %v", got, want)
	}
	if m := g.Stats().Metrics()["disk.avg.queue"]; m != got {
		t.Fatalf("registry source reports disk.avg.queue = %v, want %v", m, got)
	}
}
