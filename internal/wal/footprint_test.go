//go:build !race

package wal

import (
	"fmt"
	"runtime"
	"testing"
)

// A durable record lives once, as the line its store wrote: the fsync that
// makes it durable clears it from the log's tail, and a MemStore keeps the
// line in its chunks, not the boxed Record. 50 000 committed single-row
// inserts, shaped like the benchmark's, must leave the tail empty and keep
// at most 160 heap bytes each after a collection (about 250 when the tail
// and the store each held the boxed record). Built only without -race: the
// race detector's shadow memory is not the program's heap.
func TestDurableRecordsLeaveTheLog(t *testing.T) {
	const n = 50_000
	const sql = "insert into events (eid, uid, note) values (?, ?, ?)"
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	l := New(Options{Mode: Group})
	defer l.Close()
	var lsn int64
	for i := int64(0); i < n; i++ {
		lsn = l.Append("event", sql, [][]any{{1_000_000 + i, 1_000 + i%977, fmt.Sprintf("note-%d", i)}})
		l.Commit(lsn)
	}
	l.SyncTo(lsn)
	l.mu.Lock()
	tail := len(l.tail)
	l.mu.Unlock()
	if tail != 0 {
		t.Fatalf("tail holds %d records after SyncTo(%d), want none", tail, lsn)
	}

	runtime.GC()
	runtime.ReadMemStats(&after)
	perRecord := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	t.Logf("%.1f heap bytes kept per durable record", perRecord)
	if perRecord > 160 {
		t.Fatalf("%.1f heap bytes kept per durable record, want at most 160", perRecord)
	}
	runtime.KeepAlive(l)
}
