package wal

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/apps"
)

// testSeed resolves a randomized test's seed: ASYNCQ_SEED when set, the
// clock otherwise. It is logged, so a failure prints what reproduces it.
func testSeed(t *testing.T) int64 {
	seed := apps.SeedFromEnv(0)
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	t.Logf("seed %d (reproduce with ASYNCQ_SEED=%d go test -run %s ./internal/wal/)", seed, seed, t.Name())
	return seed
}

// refLog is the reference the log is checked against: the same state, with
// every question answered by scanning — the forms wal.go used before the
// tail became index-addressed live on here, and only here.
type refLog struct {
	recs    []Record // every record not yet covered by the snapshot
	snap    *Snapshot
	synced  int64
	next    int64
	appends int64
	// Stats the flusher's grouping cannot change: what became durable.
	syncedRecs, syncedBytes int64
}

func (m *refLog) snapLSN() int64 {
	if m.snap == nil {
		return 0
	}
	return m.snap.LSN
}

func (m *refLog) append(r Record) {
	m.recs = append(m.recs, r)
	m.next++
	m.appends++
}

// markDurable advances the durable LSN, charging the newly durable records.
func (m *refLog) markDurable(t *testing.T, upto int64) {
	for _, r := range m.recs {
		if r.LSN > m.synced && r.LSN <= upto {
			b, err := marshalRecord(r)
			if err != nil {
				t.Fatal(err)
			}
			m.syncedRecs++
			m.syncedBytes += int64(len(b))
		}
	}
	m.synced = upto
}

func (m *refLog) recordsAfter(after int64) ([]Record, bool) {
	if m.snap != nil && after < m.snap.LSN {
		return nil, false
	}
	var out []Record
	for _, r := range m.recs {
		if r.LSN > after && r.LSN <= m.synced {
			out = append(out, r)
		}
	}
	return out, true
}

func (m *refLog) truncate(keep func(Record) bool) {
	var kept []Record
	for _, r := range m.recs {
		if keep(r) {
			kept = append(kept, r)
		}
	}
	m.recs = kept
}

func (m *refLog) writeSnapshot(s *Snapshot) {
	m.snap = s
	m.truncate(func(r Record) bool { return r.LSN > s.LSN })
}

func (m *refLog) crash() {
	m.truncate(func(r Record) bool { return r.LSN <= m.synced })
	m.next = m.synced + 1
}

// spyStore is a MemStore that keeps a copy of every batch the flusher hands
// it and fails Sync on request.
type spyStore struct {
	inner *MemStore

	mu       sync.Mutex
	event    sync.Cond
	batches  [][]Record
	handed   int64 // last LSN handed to AppendRecords
	failing  bool
	ok, errs int64 // Sync outcomes
	// failedAt is the value of handed at the latest failed Sync.
	failedAt int64
}

func newSpyStore() *spyStore {
	s := &spyStore{inner: NewMemStore()}
	s.event.L = &s.mu
	return s
}

// The log does not serialize WriteSnapshot against the flusher's store calls
// (replica.Checkpoint does, by syncing everything under its write lock
// first), and MemStore is not safe for that overlap; the spy is, so the
// model can checkpoint mid-flush.
func (s *spyStore) AppendRecords(recs []Record) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.batches = append(s.batches, append([]Record(nil), recs...))
	s.handed = recs[len(recs)-1].LSN
	return s.inner.AppendRecords(recs)
}

var errSpySync = errors.New("spy: injected fsync failure")

func (s *spyStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.event.Broadcast()
	if s.failing {
		s.errs++
		s.failedAt = s.handed
		return errSpySync
	}
	s.ok++
	return s.inner.Sync()
}

func (s *spyStore) WriteSnapshot(snap *Snapshot) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.WriteSnapshot(snap)
}

func (s *spyStore) Records(after, upto int64) ([]Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.Records(after, upto)
}

func (s *spyStore) Load() (*Snapshot, []Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.Load()
}

func (s *spyStore) Close() error { return nil }

func (s *spyStore) setFailing(on bool) {
	s.mu.Lock()
	s.failing = on
	s.mu.Unlock()
}

// awaitFailedSync returns once a Sync has failed with every record up to lsn
// already handed over: the log then holds staged-but-unsynced records.
func (s *spyStore) awaitFailedSync(lsn int64) {
	s.mu.Lock()
	s.failedAt = 0
	for s.failedAt < lsn {
		s.event.Wait()
	}
	s.mu.Unlock()
}

func (s *spyStore) takeBatches() [][]Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.batches
	s.batches = nil
	return b
}

func (s *spyStore) resetCounts() {
	s.mu.Lock()
	s.ok, s.errs = 0, 0
	s.mu.Unlock()
}

// TestModelRandomInterleavings drives Append / flush / WriteSnapshot / Crash
// / reopen in a seeded random order, with and without a failing store, and
// holds the log to the scan-based reference: RecordsAfter(k) for every k,
// every batch the flusher hands the store, what a reopen loads, and Stats.
func TestModelRandomInterleavings(t *testing.T) {
	seed := testSeed(t)
	rounds := 12
	if testing.Short() {
		rounds = 4
	}
	for round := 0; round < rounds; round++ {
		runModel(t, seed+int64(round), []Mode{Group, Strict, Off}[round%3])
	}
}

func runModel(t *testing.T, seed int64, mode Mode) {
	rng := rand.New(rand.NewSource(seed))
	store := newSpyStore()
	l := New(Options{Mode: mode, Store: store})
	defer func() { l.Close() }()
	m := &refLog{next: 1}
	handedNext := int64(1) // LSN the next batch must start at
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d mode %s: %s", seed, mode, fmt.Sprintf(format, args...))
	}

	appendSome := func() {
		for n := 1 + rng.Intn(6); n > 0; n-- {
			sets := make([][]any, rng.Intn(3))
			for i := range sets {
				sets[i] = []any{rng.Int63n(1000), genString(rng)}
			}
			name, sql := genString(rng), genString(rng)
			lsn := l.Append(name, sql, sets)
			if lsn != m.next {
				fail("Append returned LSN %d, want %d", lsn, m.next)
			}
			m.append(Record{LSN: lsn, Name: name, SQL: sql, ArgSets: sets})
		}
	}
	// checkBatches holds what the store was handed since the last check to
	// the reference: each record once, in LSN order, through upto, with the
	// reference's contents.
	checkBatches := func(upto int64) {
		t.Helper()
		for _, batch := range store.takeBatches() {
			if mode == Strict && len(batch) != 1 {
				fail("strict flush handed the store %d records", len(batch))
			}
			for _, r := range batch {
				if r.LSN != handedNext {
					fail("store handed LSN %d, want %d", r.LSN, handedNext)
				}
				var want *Record
				for i := range m.recs {
					if m.recs[i].LSN == r.LSN {
						want = &m.recs[i]
					}
				}
				if want == nil || !reflect.DeepEqual(r, *want) {
					fail("store handed %+v, reference holds %+v", r, want)
				}
				handedNext++
			}
		}
		if handedNext != upto+1 {
			fail("store was handed records through LSN %d, want through %d", handedNext-1, upto)
		}
	}
	// checkQuiescent compares everything observable with the flusher idle.
	checkQuiescent := func() {
		t.Helper()
		if got := l.LastLSN(); got != m.next-1 {
			fail("LastLSN %d, want %d", got, m.next-1)
		}
		if got := l.TailStart(); got != m.snapLSN() {
			fail("TailStart %d, want %d", got, m.snapLSN())
		}
		for k := max(m.snapLSN()-2, 0); k <= m.next; k++ {
			got, err := l.RecordsAfter(k)
			want, wantOK := m.recordsAfter(k)
			if (err == nil) != wantOK || !reflect.DeepEqual(got, want) {
				fail("RecordsAfter(%d) = %+v, %v; reference %+v, %v", k, got, err, want, wantOK)
			}
		}
		store.mu.Lock()
		okSyncs, errSyncs := store.ok, store.errs
		store.mu.Unlock()
		want := Stats{
			Appends: m.appends, Syncs: okSyncs, SyncedRecords: m.syncedRecs, SyncedBytes: m.syncedBytes,
			SyncErrors: errSyncs, DurableLSN: m.synced, SnapshotLSN: m.snapLSN(),
		}
		if got := l.Stats(); got != want {
			fail("Stats %+v, reference %+v", got, want)
		}
	}
	flush := func() {
		t.Helper()
		l.SyncTo(l.LastLSN())
		m.markDurable(t, m.next-1)
		checkBatches(m.synced)
		checkQuiescent()
	}

	for step := 0; step < 120; step++ {
		switch op := rng.Intn(10); {
		case op < 4:
			appendSome()
		case op < 6:
			flush()
		case op == 6:
			// Checkpoint anywhere inside the known-durable prefix — possibly
			// while the flusher is mid-batch on records appended just before.
			lsn := m.snapLSN() + rng.Int63n(m.synced-m.snapLSN()+1)
			snap := &Snapshot{LSN: lsn}
			if err := l.WriteSnapshot(snap); err != nil {
				fail("WriteSnapshot(%d): %v", lsn, err)
			}
			m.writeSnapshot(snap)
		case op == 7:
			// Crash racing the flusher: whatever it made durable survives.
			appendSome()
			l.Crash()
			durable := l.DurableLSN()
			if durable < m.synced || durable >= m.next {
				fail("durable LSN %d after crash, want within [%d, %d)", durable, m.synced, m.next)
			}
			m.markDurable(t, durable)
			checkBatches(durable)
			m.crash()
			checkQuiescent()
		case op == 8:
			// Crash with records staged in the store but never synced: the
			// re-issued LSNs must replace them, not follow them.
			flush()
			store.setFailing(true)
			appendSome()
			staged := m.next - 1
			if mode == Strict {
				staged = m.synced + 1 // one record per fsync: the rest wait behind it
			}
			store.awaitFailedSync(staged)
			checkBatches(staged)
			l.Crash()
			store.setFailing(false)
			m.crash()
			handedNext = m.synced + 1
			appendSome()
			flush()
		default:
			// Reopen: Close drains what is pending, Open loads the store.
			l.Close()
			m.markDurable(t, m.next-1)
			checkBatches(m.synced)
			m.appends, m.syncedRecs, m.syncedBytes = 0, 0, 0
			store.resetCounts()
			reopened, err := Open(Options{Mode: mode, Store: store})
			if err != nil {
				fail("reopen: %v", err)
			}
			l = reopened
			checkQuiescent()
		}
	}
	flush()
}
