package wal_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/fault"
	"repro/internal/wal"
)

// A flaky fsync must delay durability, never corrupt it: every record lands
// in the store exactly once (the flusher's append watermark), in LSN order,
// and every Commit still returns only once its record is truly durable.
func TestFlakySyncNoDuplicateRecords(t *testing.T) {
	inj := fault.New(20110411).
		At(fault.SyncErr, 1, 2, 3). // the first fsyncs fail for sure
		Rate(fault.SyncErr, 0.4)    // and later ones keep failing at random
	mem := wal.NewMemStore()
	log := wal.New(wal.Options{Mode: wal.Group, Store: fault.NewStore(mem, inj)})
	defer log.Close()

	const writers, perWriter = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				lsn := log.Append("q", "insert into t (id) values (?)", [][]any{{int64(w*perWriter + i)}})
				log.Commit(lsn)
			}
		}(w)
	}
	wg.Wait()

	total := int64(writers * perWriter)
	if got := log.DurableLSN(); got != total {
		t.Fatalf("durable LSN %d, want %d", got, total)
	}
	if st := log.Stats(); st.SyncErrors < 3 {
		t.Fatalf("sync errors %d, want ≥ 3 (the scheduled failures)", st.SyncErrors)
	}
	_, recs, err := mem.Load()
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	seen := map[int64]bool{}
	last := int64(0)
	for _, r := range recs {
		if seen[r.LSN] {
			t.Fatalf("store holds LSN %d twice: a failed fsync duplicated its batch", r.LSN)
		}
		seen[r.LSN] = true
		if r.LSN <= last {
			t.Fatalf("store records out of order: %d after %d", r.LSN, last)
		}
		last = r.LSN
	}
	if int64(len(recs)) != total {
		t.Fatalf("store holds %d records, want %d", len(recs), total)
	}
}

// deadStore never syncs. It counts its Sync attempts, and separately those
// made once the test has started closing the log.
type deadStore struct {
	wal.Store
	attempted              chan struct{} // one token per attempt, dropped when nobody listens
	closing                atomic.Bool
	attempts, whileClosing atomic.Int64
}

func (s *deadStore) Sync() error {
	s.attempts.Add(1)
	if s.closing.Load() {
		s.whileClosing.Add(1)
	}
	select {
	case s.attempted <- struct{}{}:
	default:
	}
	return errors.New("dead store: fsync failed")
}

// Close must not sit out the flusher's retry back-off on a store that keeps
// failing: it signals the flush condition the back-off waits on, the flusher
// makes its one last attempt and abandons the pending records. Asserted on
// attempt counts, not on elapsed time: at most one attempt once Close has
// begun, none after it returned, and nothing pretended durable.
func TestCloseInterruptsFailedSyncBackoff(t *testing.T) {
	store := &deadStore{Store: wal.NewMemStore(), attempted: make(chan struct{})}
	log := wal.New(wal.Options{Mode: wal.Group, Store: store})
	log.Append("q", "insert into t (id) values (?)", [][]any{{int64(1)}})
	<-store.attempted // the store has failed the flusher twice: it is retrying,
	<-store.attempted // backing off between attempts

	store.closing.Store(true)
	log.Close()
	atClose := store.attempts.Load()
	if n := store.whileClosing.Load(); n > 1 {
		t.Fatalf("%d fsync attempts after Close began, want at most the one final retry", n)
	}
	if got := log.DurableLSN(); got != 0 {
		t.Fatalf("durable LSN %d on a store that never synced, want 0", got)
	}
	if st := log.Stats(); st.SyncErrors != atClose || st.Syncs != 0 {
		t.Fatalf("stats %+v, want %d sync errors and no syncs", st, atClose)
	}
	log.Close() // idempotent, and the flusher is gone: no further attempt
	if got := store.attempts.Load(); got != atClose {
		t.Fatalf("fsync attempts went %d -> %d after Close returned", atClose, got)
	}
}
