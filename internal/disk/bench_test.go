package disk

import (
	"sync/atomic"
	"testing"
)

// BenchmarkWriteIdle is a WAL fsync's shape: one submitter, a zero clock, so
// every write finds the log track's spindle idle.
func BenchmarkWriteIdle(b *testing.B) {
	d := New(DefaultParams(), zeroClock())
	defer d.Close()
	b.ReportAllocs()
	for range b.N {
		d.Write(4095, 1)
	}
}

// BenchmarkReadParallel: one-page reads from GOMAXPROCS submitters, each
// walking the tracks from its own offset, so all 8 spindles are in use.
func BenchmarkReadParallel(b *testing.B) {
	d := New(DefaultParams(), zeroClock())
	defer d.Close()
	var next atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		track := int(next.Add(1))
		for pb.Next() {
			d.Read(track, 1)
			track += 3
		}
	})
}
