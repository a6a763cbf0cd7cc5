package replica

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/wal"
)

// stallStore wraps the in-memory WAL store with a gate on fsync: Sync
// blocks until the gate opens, holding every commit waiter in its
// durability wait — the window where deadlines and primary crashes race.
type stallStore struct {
	*wal.MemStore
	gate chan struct{}
}

func (s *stallStore) Sync() error {
	<-s.gate
	return s.MemStore.Sync()
}

// TestExpiredDeadlineOnStalledCommitSingleError is the issue's regression
// test: a write parked in the WAL durability wait whose deadline expires —
// and whose primary then crashes — must charge the client exactly one
// error (ErrDeadlineExceeded from the wait, or ErrPrimaryDown for writes
// issued after the crash), must never half-ack, and must not leak the
// waiter goroutine even though the fsync it was waiting on never finished.
func TestExpiredDeadlineOnStalledCommitSingleError(t *testing.T) {
	st := &stallStore{MemStore: wal.NewMemStore(), gate: make(chan struct{})}
	g := NewGroup(server.SYS1(), 0.02, Options{
		Replicas:   1,
		Durability: wal.Group,
		Store:      st,
	})
	defer g.Close()
	loadTable(t, g, wal.TableSource{Name: "events", Schema: storage.NewSchema(
		storage.Column{Name: "id", Type: storage.TInt},
		storage.Column{Name: "val", Type: storage.TString},
	)})
	g.Warm()

	baseline := runtime.NumGoroutine()

	const writers = 8
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			res := g.Exec(query.Req("w", "insert into events values (?, ?)",
				[]any{int64(w + 1), fmt.Sprintf("e%d", w)}).
				WithDeadline(query.After(40 * time.Millisecond)))
			errs <- res.Err
		}(w)
	}
	// The fsync is stalled, so no write can be acknowledged: every client
	// must get exactly ErrDeadlineExceeded, within the deadline's order of
	// magnitude — not hang until the fsync completes (it never does here).
	for w := 0; w < writers; w++ {
		select {
		case err := <-errs:
			if !errors.Is(err, query.ErrDeadlineExceeded) {
				t.Fatalf("writer got %v, want ErrDeadlineExceeded", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("writer stuck in commit wait past its deadline")
		}
	}

	// The waiters must be gone while the fsync is STILL stalled — a waiter
	// that only exits when the sync completes is the leak this test pins.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+1 { // +1: the flusher blocked in Sync
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines (baseline %d) after deadline returns:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Now the crash: let the in-flight fsync land and take the primary
	// down. The expired writes were reported unacknowledged; the crash must
	// not re-charge anyone (their error channels are already drained), and
	// a write against the downed primary reports exactly ErrPrimaryDown.
	close(st.gate)
	g.CrashPrimary()
	res := g.Exec(query.Req("w", "insert into events values (?, ?)",
		[]any{int64(100), "after"}).WithDeadline(query.After(50 * time.Millisecond)))
	if !errors.Is(res.Err, ErrPrimaryDown) {
		t.Fatalf("write on crashed primary got %v, want ErrPrimaryDown", res.Err)
	}

	// Recovery restores exactly-one-answer service.
	if err := g.RestartPrimary(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	res = g.Exec(query.Req("w", "insert into events values (?, ?)",
		[]any{int64(101), "recovered"}))
	if res.Err != nil {
		t.Fatalf("write after restart: %v", res.Err)
	}
}

// A commit wait that fails takes the acknowledgement away only from the
// bindings that had committed: a binding the primary rejected keeps its own
// error, exactly as the per-binding Exec calls report it.
func TestFailedCommitWaitKeepsValidationErrors(t *testing.T) {
	st := &stallStore{MemStore: wal.NewMemStore(), gate: make(chan struct{})}
	g := NewGroup(server.SYS1(), 0, Options{Replicas: 1, Durability: wal.Group, Store: st})
	defer g.Close()
	defer close(st.gate)
	loadTable(t, g, wal.TableSource{Name: "events", Schema: storage.NewSchema(
		storage.Column{Name: "id", Type: storage.TInt},
		storage.Column{Name: "val", Type: storage.TString},
	)})

	const stmt = "insert into events values (?, ?)"
	sets := [][]any{{int64(1), "a"}, {int64(2)}}
	req := query.BatchReq("w", stmt, sets)
	req.Deadline = query.After(40 * time.Millisecond)
	br := g.ExecBatch(req)
	if !errors.Is(br.Errs[0], query.ErrDeadlineExceeded) || br.Values[0] != nil {
		t.Errorf("committed binding: (%v, %v), want deadline exceeded", br.Values[0], br.Errs[0])
	}
	one := g.Exec(query.Req("w", stmt, sets[1]).WithDeadline(query.After(40 * time.Millisecond)))
	if one.Err == nil || errors.Is(one.Err, query.ErrDeadlineExceeded) {
		t.Fatalf("Exec of the short binding: %v, want its arity error", one.Err)
	}
	if br.Errs[1] == nil || br.Errs[1].Error() != one.Err.Error() {
		t.Errorf("rejected binding: %v, want what Exec reports: %v", br.Errs[1], one.Err)
	}
}
