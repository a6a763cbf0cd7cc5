package replica

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/query"
	"repro/internal/wal"
)

// failEveryFourth fails one Sync in four, so the flusher keeps leaving
// records staged in the store but not durable while it backs off.
type failEveryFourth struct {
	wal.Store
	n atomic.Int64
}

func (s *failEveryFourth) Sync() error {
	if s.n.Add(1)%4 == 0 {
		return errors.New("injected fsync failure")
	}
	return s.Store.Sync()
}

// A catch-up reads the log's store: the durable records live there alone.
// A replica fails out while 2 000 writes land from eight writers (one in
// five a batch of four rows), then recovers while the writers keep
// committing. It must end equal to the primary, and no RecordsAfter taken
// meanwhile may return a record past the durable LSN — the store holds
// staged, unsynced records whenever a Sync has just failed.
func TestCatchUpReadsTheStoreUnderWrites(t *testing.T) {
	stores := map[string]func(t *testing.T) wal.Store{
		"MemStore": func(*testing.T) wal.Store { return wal.NewMemStore() },
		"FileStore": func(t *testing.T) wal.Store {
			st, err := wal.NewFileStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return st
		},
	}
	for name, mk := range stores {
		t.Run(name, func(t *testing.T) {
			g := newGroupOpts(t, Options{Replicas: 2, Store: &failEveryFourth{Store: mk(t)}})
			var next atomic.Int64 // ids past the 100 preloaded rows
			next.Store(100)
			write := func() error {
				if id := next.Add(1) - 1; id%5 != 0 {
					_, err := g.Exec(query.Req("w", ins, []any{id, fmt.Sprintf("v%d", id)})).Pair()
					return err
				}
				base := next.Add(3) - 4 // this id and the three after it
				sets := make([][]any, 4)
				for j := range sets {
					sets[j] = []any{base + int64(j), fmt.Sprintf("b%d", base+int64(j))}
				}
				return errors.Join(g.ExecBatch(query.BatchReq("w", ins, sets)).Errs...)
			}
			writers := func(stop func(done int) bool) *sync.WaitGroup {
				var wg sync.WaitGroup
				var done atomic.Int64
				for w := 0; w < 8; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for !stop(int(done.Add(1)) - 1) {
							if err := write(); err != nil {
								t.Error(err)
								return
							}
						}
					}()
				}
				return &wg
			}

			g.FailOut(0)
			writers(func(done int) bool { return done >= 2000 }).Wait()
			if t.Failed() {
				return
			}
			if applied := g.AppliedLSNs()[0]; applied >= g.CommitLSN() {
				t.Fatalf("failed-out replica applied %d of %d records", applied, g.CommitLSN())
			}

			var stopped atomic.Bool
			busy := writers(func(int) bool { return stopped.Load() })
			watched := make(chan struct{})
			go func() { // at least one read, then one every 200µs
				defer close(watched)
				l := g.Log()
				for n := 0; n == 0 || !stopped.Load(); n++ {
					time.Sleep(200 * time.Microsecond)
					after := max(l.DurableLSN()-16, l.TailStart())
					recs, err := l.RecordsAfter(after)
					durable := l.DurableLSN()
					if err != nil {
						t.Errorf("RecordsAfter(%d) refused with no checkpoint past it", after)
						return
					}
					for i, r := range recs {
						if r.LSN != after+1+int64(i) || r.LSN > durable {
							t.Errorf("RecordsAfter(%d)[%d] is LSN %d; durable LSN %d", after, i, r.LSN, durable)
							return
						}
					}
				}
			}()
			if err := g.Recover(0); err != nil {
				t.Fatalf("recover under writes: %v", err)
			}
			for i := 0; i < 200 && !t.Failed(); i++ { // writes that reach the recovered replica
				if err := write(); err != nil {
					t.Fatal(err)
				}
			}
			stopped.Store(true)
			busy.Wait()
			<-watched
			if t.Failed() {
				return
			}

			if !g.Healthy()[0] {
				t.Fatal("recovered replica is out of rotation")
			}
			want := wal.Capture(g.Primary().Catalog(), 0)
			for i, r := range g.Replicas() {
				if got := wal.Capture(r.Catalog(), 0); !reflect.DeepEqual(got, want) {
					t.Fatalf("replica %d (%d rows) differs from the primary (%d rows)", i, rows("kv", r), rows("kv", g.Primary()))
				}
			}
			if n, w := rows("kv", g.Primary()), int(next.Load()); n != w {
				t.Fatalf("primary holds %d rows, want %d", n, w)
			}
		})
	}
}

// errRecords is the read failure of failRecords.
var errRecords = errors.New("injected store read failure")

// failRecords is a store that cannot read a range back.
type failRecords struct{ wal.Store }

func (failRecords) Records(after, upto int64) ([]wal.Record, error) { return nil, errRecords }

// A catch-up whose store read fails returns the store's error: the
// replica stands past the snapshot, so it is not a checkpoint's doing.
func TestRecoverReturnsTheStoreError(t *testing.T) {
	g := newGroupOpts(t, Options{Replicas: 2, Store: failRecords{wal.NewMemStore()}})
	g.FailOut(0)
	for id := int64(100); id < 110; id++ {
		if _, err := g.Exec(query.Req("w", ins, []any{id, "v"})).Pair(); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Recover(0); !errors.Is(err, errRecords) {
		t.Fatalf("Recover = %v, want the store's error", err)
	}
	if g.Healthy()[0] {
		t.Fatal("a replica whose catch-up failed is back in rotation")
	}
}
