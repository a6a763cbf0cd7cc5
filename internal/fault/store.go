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
// the retry never duplicates records in the store). Every other method is
// the embedded store's own.
type Store struct {
	wal.Store
	inj *Injector
}

// NewStore wraps inner; a nil injector still wraps (inert).
func NewStore(inner wal.Store, inj *Injector) *Store {
	return &Store{Store: inner, inj: inj}
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
	return s.Store.Sync()
}
