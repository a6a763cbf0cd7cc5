package wal

import (
	"sync"
	"testing"
	"time"
)

// holdSyncer blocks the flusher inside its first fsync until released. The
// test lives in-package so it can watch the hold Crash puts on the flusher and release the
// fsync only once Crash is provably waiting on it — the loss of the unsynced
// tail is then deterministic, not a scheduling accident.
type holdSyncer struct {
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (h *holdSyncer) Sync(bytes int) {
	h.once.Do(func() {
		close(h.entered)
		<-h.release
	})
}

func (l *Log) crashPending() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.held > 0
}

func TestCrashLosesUnsyncedTailUnderOff(t *testing.T) {
	gate := &holdSyncer{entered: make(chan struct{}), release: make(chan struct{})}
	l := New(Options{Mode: Off, Syncer: gate})
	defer l.Close()

	l.Commit(l.Append("w", "INSERT", [][]any{{int64(1)}})) // Off: returns before durable
	<-gate.entered                                         // flusher is mid-fsync of record 1
	l.Append("w", "INSERT", [][]any{{int64(2)}})
	l.Append("w", "INSERT", [][]any{{int64(3)}})

	done := make(chan struct{})
	go func() { l.Crash(); close(done) }()
	for !l.crashPending() { // Crash has claimed the log; no new fsync can start
		time.Sleep(time.Millisecond)
	}
	close(gate.release) // the in-flight fsync completes; records 2,3 are lost
	<-done

	if got := l.DurableLSN(); got != 1 {
		t.Fatalf("durable LSN after crash = %d, want 1", got)
	}
	if got := l.LastLSN(); got != 1 {
		t.Fatalf("last LSN after crash = %d, want 1 (tail truncated)", got)
	}
	lsn := l.Append("w", "INSERT", [][]any{{int64(4)}})
	if lsn != 2 {
		t.Fatalf("post-crash append LSN = %d, want 2", lsn)
	}
	l.SyncTo(lsn)
	recs, err := l.RecordsAfter(0)
	if err != nil || len(recs) != 2 || recs[0].LSN != 1 {
		t.Fatalf("records after crash: %v err=%v", recs, err)
	}
}
