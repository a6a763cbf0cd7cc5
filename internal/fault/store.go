package fault

import (
	"time"

	"repro/internal/wal"
)

// Store wraps a wal.Store with fsync fault injection: every Sync is a
// SyncStall decision point (firing sleeps the stall delay — a disk with a
// deep queue) and then a SyncErr decision point (firing returns ErrSync
// *before* the inner Sync runs, so an injected failure has no side
// effects — the WAL's flusher retries, and the append watermark guarantees
// the retry never duplicates records in the store). Appends and snapshots
// pass through untouched.
type Store struct {
	inner wal.Store
	inj   *Injector
}

// NewStore wraps inner; a nil injector still wraps (inert).
func NewStore(inner wal.Store, inj *Injector) *Store {
	return &Store{inner: inner, inj: inj}
}

// AppendRecords forwards to the inner store.
func (s *Store) AppendRecords(recs []wal.Record) (int, error) {
	return s.inner.AppendRecords(recs)
}

// Sync stalls and/or fails per the injector, else fsyncs the inner store.
func (s *Store) Sync() error {
	if s.inj.Should(SyncStall) {
		if d := s.inj.DelayFor(SyncStall); d > 0 {
			time.Sleep(d)
		}
	}
	if s.inj.Should(SyncErr) {
		return ErrSync
	}
	return s.inner.Sync()
}

// WriteSnapshot forwards to the inner store.
func (s *Store) WriteSnapshot(snap *wal.Snapshot) error {
	return s.inner.WriteSnapshot(snap)
}

// Records forwards to the inner store.
func (s *Store) Records(after, upto int64) ([]wal.Record, error) {
	return s.inner.Records(after, upto)
}

// Load forwards to the inner store.
func (s *Store) Load() (*wal.Snapshot, []wal.Record, error) {
	return s.inner.Load()
}

// Close forwards to the inner store.
func (s *Store) Close() error { return s.inner.Close() }
