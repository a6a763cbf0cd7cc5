package wal

import (
	"reflect"
	"testing"
)

// gateStore holds the flusher inside AppendRecords — before it has read the
// batch — until released, and keeps what it then read.
type gateStore struct {
	*MemStore
	armed    bool // set before the gated Append; read by the flusher after it
	entered  chan struct{}
	release  chan struct{}
	gated    []Record   // the batch the held call read once released
	received [][]Record // every batch, in arrival order
}

func (g *gateStore) AppendRecords(recs []Record) (int, error) {
	if g.armed {
		g.armed = false
		close(g.entered)
		<-g.release
		g.gated = append([]Record(nil), recs...)
	}
	g.received = append(g.received, append([]Record(nil), recs...))
	return g.MemStore.AppendRecords(recs)
}

// The flusher reads its batch from the tail's own storage with the lock
// released. A checkpoint that lands meanwhile must leave that storage alone:
// compacting the tail in place would slide later records into the slots the
// flusher is about to read (here: LSN 5 into the slot of LSN 4), and the
// store would persist the wrong records under an acknowledged commit.
func TestCheckpointDuringInFlightFsyncLeavesBatchIntact(t *testing.T) {
	store := &gateStore{MemStore: NewMemStore(), entered: make(chan struct{}), release: make(chan struct{})}
	l := New(Options{Mode: Group, Store: store})
	defer l.Close()

	rec := func(lsn int64) Record {
		return Record{LSN: lsn, Name: "w", SQL: "INSERT INTO kv VALUES (?, ?)", ArgSets: [][]any{{lsn, "v"}}}
	}
	add := func(lsn int64) {
		t.Helper()
		r := rec(lsn)
		if got := l.Append(r.Name, r.SQL, r.ArgSets); got != lsn {
			t.Fatalf("Append returned LSN %d, want %d", got, lsn)
		}
	}
	// Room for every record below, so the tail is one array from the batch's
	// capture to the checkpoint whatever append's growth policy is.
	l.mu.Lock()
	l.tail = make([]Record, 0, 16)
	l.mu.Unlock()
	for lsn := int64(1); lsn <= 3; lsn++ {
		add(lsn)
	}
	l.SyncTo(3)

	store.armed = true // ordered before the flusher's read by Append's lock hand-off
	add(4)
	<-store.entered // the flusher holds batch [4] and has not read it yet
	for lsn := int64(5); lsn <= 8; lsn++ {
		add(lsn)
	}
	if err := l.WriteSnapshot(&Snapshot{LSN: 1}); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	add(9)
	close(store.release)
	l.SyncTo(9)

	if got, want := store.gated, []Record{rec(4)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("batch read after the checkpoint = %+v, want %+v", got, want)
	}
	next := int64(1)
	for _, batch := range store.received {
		for _, r := range batch {
			if !reflect.DeepEqual(r, rec(next)) {
				t.Fatalf("store received %+v, want %+v (every record once, in LSN order)", r, rec(next))
			}
			next++
		}
	}
	if next != 10 {
		t.Fatalf("store received records through LSN %d, want 9", next-1)
	}
	recs, err := l.RecordsAfter(1)
	if err != nil || len(recs) != 8 || recs[0].LSN != 2 || recs[7].LSN != 9 {
		t.Fatalf("RecordsAfter(1) after the checkpoint: %d records, err=%v", len(recs), err)
	}
}
