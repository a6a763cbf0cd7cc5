// Package wal is the per-shard write-ahead log: the durability layer under
// internal/replica and internal/server. Every committed write appends one
// LSN-stamped record; commit acknowledgement waits on an fsync whose cost is
// charged through the owning server's simulated disk (the Syncer hook), and
// concurrent commits share one fsync — group commit, the same amortization
// the paper's batched submission applies to network round trips.
//
// The log also powers recovery: a checkpoint (Snapshot) plus the durable
// record suffix rebuilds a crashed primary or a lagging replica
// byte-identically — row ids included, because the log is the total write
// order.
//
// Crash() models the loss a real crash causes: the in-memory tail beyond
// the last fsync is dropped. Writes acknowledged under Group or Strict mode
// are always inside the durable prefix; writes acknowledged under Off mode
// may be lost — that is exactly the tradeoff FigDurability measures.
package wal

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/query"
)

// Mode selects how Commit acknowledges durability.
type Mode int

const (
	// Group (the default) acknowledges after an fsync covering the record;
	// concurrent commits share one fsync, so the cost amortizes.
	Group Mode = iota
	// Strict acknowledges after a dedicated fsync per record — no
	// amortization; the per-write fsync cost is paid serially.
	Strict
	// Off acknowledges immediately; fsync happens in the background, and a
	// crash loses acknowledged writes past the last fsync.
	Off
)

// String renders the mode as its flag spelling.
func (m Mode) String() string {
	switch m {
	case Strict:
		return "strict"
	case Off:
		return "off"
	default:
		return "group"
	}
}

// ParseMode parses a -durability flag value.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "group":
		return Group, nil
	case "strict":
		return Strict, nil
	case "off":
		return Off, nil
	}
	return Group, errors.New("wal: unknown durability mode " + s + " (want off, group or strict)")
}

// Record is one logged write: a prepared statement plus its binding set
// (single-statement writes are one-binding batches), stamped with its log
// sequence number. LSNs start at 1 and are dense.
type Record struct {
	LSN     int64
	Name    string
	SQL     string
	ArgSets [][]any
}

// Request is the record as the one ExecBatch that re-executes it on a copy.
// Only acknowledged (successful) writes are logged, so an error from
// replaying it means divergence or a transport fault.
func (r Record) Request() query.BatchRequest {
	return query.BatchReq(r.Name, r.SQL, r.ArgSets)
}

// Syncer charges the cost of one fsync of n encoded bytes — the server
// implements it by riding a batched write on its simulated disk.
type Syncer interface {
	Sync(bytes int)
}

// Options configure a log.
type Options struct {
	// Mode is the commit acknowledgement mode (zero value: Group).
	Mode Mode
	// Store persists records and snapshots (nil: NewMemStore()).
	Store Store
	// Syncer charges simulated fsync cost (nil: fsyncs are free).
	Syncer Syncer
}

// Stats summarizes log activity. SyncedRecords/Syncs is the achieved group
// commit factor: how many commits each fsync amortized over.
type Stats struct {
	Appends       int64
	Syncs         int64
	SyncedRecords int64
	SyncedBytes   int64
	SyncErrors    int64 // failed fsync attempts (each retried until durable)
	DurableLSN    int64
	SnapshotLSN   int64
}

// AvgGroup is the average number of records per fsync. Like every ratio
// helper in this repo it guards the zero denominator: before the first
// fsync it reports 0, not NaN.
func (s Stats) AvgGroup() float64 {
	if s.Syncs == 0 {
		return 0
	}
	return float64(s.SyncedRecords) / float64(s.Syncs)
}

// AvgSyncBytes is the average number of encoded bytes per fsync, with the
// same zero-denominator guard as AvgGroup.
func (s Stats) AvgSyncBytes() float64 {
	if s.Syncs == 0 {
		return 0
	}
	return float64(s.SyncedBytes) / float64(s.Syncs)
}

// Metrics flattens the stats for an obs registry source.
func (s Stats) Metrics() map[string]float64 {
	return map[string]float64{
		"appends":        float64(s.Appends),
		"syncs":          float64(s.Syncs),
		"synced.records": float64(s.SyncedRecords),
		"synced.bytes":   float64(s.SyncedBytes),
		"sync.errors":    float64(s.SyncErrors),
		"durable.lsn":    float64(s.DurableLSN),
		"snapshot.lsn":   float64(s.SnapshotLSN),
		"avg.group":      s.AvgGroup(),
		"avg.sync.bytes": s.AvgSyncBytes(),
	}
}

// Log is one shard's write-ahead log. It is safe for concurrent use.
type Log struct {
	mode   Mode
	store  Store
	syncer Syncer

	mu      sync.Mutex
	flush   sync.Cond // wakes the flusher when unsynced records exist
	durable sync.Cond // wakes commit waiters, Crash and RecordsAfter
	snap    *Snapshot // latest checkpoint; nil before the first
	tail    []Record  // the records not yet durable (LSN > synced); LSN-dense (see span)
	next    int64     // next LSN to assign
	synced  int64     // highest durable LSN
	syncing bool      // a flusher fsync is in flight (Crash and RecordsAfter wait it out)
	held    int       // Crash or RecordsAfter in progress: the flusher must not start a new fsync
	backoff bool      // the flusher is waiting out a failed fsync (Close and Crash cut it short)
	closed  bool
	done    chan struct{}

	// appended is the highest LSN handed to store.AppendRecords (≥ synced:
	// a failed Sync leaves records appended but not durable). The flusher's
	// retry only re-appends records past this watermark, so a flaky fsync
	// can never duplicate records in the store.
	appended int64
	// appendedBytes accumulates encoded bytes appended since the last
	// successful sync (the stats charge for a sync that needed retries).
	appendedBytes int64

	appends, syncs, syncedRecs, syncedBytes, syncErrs int64

	metrics atomic.Pointer[obs.Registry]
}

// SetMetrics points the log at a registry; the flusher then records the
// wall time and group size of every fsync into the shared
// "wal.fsync.wall" / "wal.fsync.records" histograms (shared on purpose:
// per-shard logs feeding one registry yield one unified distribution).
func (l *Log) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	l.metrics.Store(reg)
}

// CommitWait is Commit recorded as a "wal.commit" child span of sp — the
// group-commit latency a write pays for its durability mode — and bounded by
// dl: the wait gives up when dl expires before the record becomes durable,
// returning query.ErrDeadlineExceeded. The record itself stays in the log
// and will still be fsynced — only the acknowledgement is abandoned, so the
// caller must report the write as "never acknowledged", not as lost. Like
// SyncTo, a crash that truncates the record away also releases the wait
// (with a nil error); the caller must then compare the returned durable LSN
// with lsn to discover the loss. durable is DurableLSN() as of the lock hold
// that ended the wait. A nil span and a zero deadline are both fine (no
// span, no bound); Off mode does not wait at all.
func (l *Log) CommitWait(sp *obs.Span, lsn int64, dl query.Deadline) (durable int64, err error) {
	var c *obs.Span
	if l.mode != Off {
		c = sp.Child("wal.commit")
	}
	var timer *time.Timer
	l.mu.Lock()
	for l.mode != Off && l.synced < lsn && !l.closed && lsn < l.next {
		if dl.Expired() {
			err = query.ErrDeadlineExceeded
			break
		}
		if timer == nil && !dl.IsZero() {
			// One shot at the deadline wakes this waiter (Broadcast: cond has
			// no directed signal) so an idle log cannot strand it past dl.
			timer = time.AfterFunc(dl.Remaining(), func() {
				l.mu.Lock()
				l.durable.Broadcast()
				l.mu.Unlock()
			})
		}
		l.durable.Wait()
	}
	durable = l.synced
	l.mu.Unlock()
	if timer != nil {
		timer.Stop()
	}
	c.End()
	return durable, err
}

// New starts a log and its flusher goroutine.
func New(opts Options) *Log {
	if opts.Store == nil {
		opts.Store = NewMemStore()
	}
	l := &Log{
		mode:   opts.Mode,
		store:  opts.Store,
		syncer: opts.Syncer,
		next:   1,
		done:   make(chan struct{}),
	}
	l.flush.L = &l.mu
	l.durable.L = &l.mu
	go l.flusher()
	return l
}

// Open starts a log over a store that already holds a snapshot and records —
// the recovery path after a real (process-level) crash. Everything loaded is
// durable by definition and stays in the store; appending resumes after the
// last record.
func Open(opts Options) (*Log, error) {
	if opts.Store == nil {
		return nil, errors.New("wal: Open needs a store")
	}
	snap, recs, err := opts.Store.Load()
	if err != nil {
		return nil, err
	}
	l := &Log{
		mode:   opts.Mode,
		store:  opts.Store,
		syncer: opts.Syncer,
		snap:   snap,
		next:   1,
		done:   make(chan struct{}),
	}
	if snap != nil {
		l.synced = snap.LSN
		l.next = snap.LSN + 1
	}
	// A catch-up asks the store for an LSN range (RecordsAfter), so a store
	// that hands back a gapped or repeated suffix must be refused here.
	for i, r := range recs {
		if want := l.next + int64(i); r.LSN != want {
			return nil, fmt.Errorf("wal: loaded record %d has LSN %d, want %d: the log is not LSN-dense", i, r.LSN, want)
		}
	}
	if n := len(recs); n > 0 {
		l.synced = recs[n-1].LSN
		l.next = l.synced + 1
	}
	l.appended = l.synced
	l.flush.L = &l.mu
	l.durable.L = &l.mu
	go l.flusher()
	return l, nil
}

// Mode reports the commit acknowledgement mode.
func (l *Log) Mode() Mode { return l.mode }

// Append stamps and buffers one record, returning its LSN. The record is not
// durable yet — Commit (or a background fsync) makes it so.
func (l *Log) Append(name, sql string, argSets [][]any) int64 {
	sets := make([][]any, len(argSets))
	for i, a := range argSets {
		sets[i] = append([]any(nil), a...)
	}
	l.mu.Lock()
	lsn := l.next
	l.next++
	l.tail = append(l.tail, Record{LSN: lsn, Name: name, SQL: sql, ArgSets: sets})
	l.appends++
	l.flush.Signal()
	l.mu.Unlock()
	return lsn
}

// Commit blocks until the record at lsn is durable under the log's mode:
// immediately for Off, after the fsync covering lsn for Group and Strict.
func (l *Log) Commit(lsn int64) {
	if l.mode == Off {
		return
	}
	l.SyncTo(lsn)
}

// SyncTo blocks until the record at lsn is durable, regardless of mode —
// checkpoints use it to force the prefix they capture onto disk. It also
// returns when a crash truncated the record away (lsn no longer assigned):
// the caller must check DurableLSN to learn whether its record survived.
func (l *Log) SyncTo(lsn int64) {
	l.mu.Lock()
	for l.synced < lsn && !l.closed && lsn < l.next {
		l.durable.Wait()
	}
	l.mu.Unlock()
}

// LastLSN returns the highest assigned LSN (durable or not).
func (l *Log) LastLSN() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next - 1
}

// DurableLSN returns the highest fsynced LSN.
func (l *Log) DurableLSN() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.synced
}

// Snapshot returns the latest checkpoint, or nil before the first.
func (l *Log) Snapshot() *Snapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snap
}

// TailStart returns the LSN the record suffix the store keeps starts after:
// records with LSN ≤ TailStart live only inside the snapshot.
func (l *Log) TailStart() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tailStartLocked()
}

func (l *Log) tailStartLocked() int64 {
	if l.snap == nil {
		return 0
	}
	return l.snap.LSN
}

// span returns the tail's records with LSN in (after, upto]. The tail is
// LSN-dense — tail[i].LSN == tail[0].LSN+i — so the range is two offsets
// from tail[0].LSN, never a scan. The result aliases the tail's storage:
// the flusher reads its batch through it with the lock released, so only
// the flusher moves records within that storage, once it is done with them
// (see flusher). Caller holds mu.
func (l *Log) span(after, upto int64) []Record {
	if len(l.tail) == 0 {
		return nil
	}
	first := l.tail[0].LSN
	lo := max(after+1-first, 0)
	hi := min(upto+1-first, int64(len(l.tail)))
	if lo >= hi {
		return nil
	}
	return l.tail[lo:hi]
}

// RecordsAfter returns the durable records with LSN in (after, DurableLSN],
// decoded from the store. It fails when a checkpoint truncated past `after`
// — the caller's state is older than the log's memory and must resync from
// Snapshot() — and with the store's error when the store cannot give the
// range back. The store is read under the lock once no fsync is in flight,
// and the flusher starts none until the read is done, so no store call
// overlaps it and a staged but unsynced record is never returned.
func (l *Log) RecordsAfter(after int64) ([]Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.snap != nil && after < l.snap.LSN {
		return nil, errors.New("wal: snapshot older than log memory")
	}
	l.held++
	for l.syncing {
		l.durable.Wait()
	}
	recs, err := l.store.Records(after, l.synced)
	l.release()
	return recs, err
}

// release ends a hold on the flusher. Caller holds mu.
func (l *Log) release() {
	if l.held--; l.held == 0 {
		l.flush.Signal()
	}
}

// WriteSnapshot installs a checkpoint; the store drops the records it
// covers. The snapshot must only cover durable state: call SyncTo(snap.LSN)
// first (Checkpoint in internal/replica does), so the tail holds none of
// them.
func (l *Log) WriteSnapshot(snap *Snapshot) error {
	l.mu.Lock()
	if snap.LSN > l.synced {
		l.mu.Unlock()
		return errors.New("wal: snapshot covers unsynced records")
	}
	l.mu.Unlock()
	// Store IO happens outside the lock (it may be a real file write).
	if err := l.store.WriteSnapshot(snap); err != nil {
		return err
	}
	l.mu.Lock()
	l.snap = snap
	l.mu.Unlock()
	return nil
}

// Crash simulates losing the machine: every record past the last fsync is
// gone. The log itself (the disk) survives and keeps serving the durable
// prefix; appending resumes at durable+1. Callers must guarantee no Append
// races Crash (internal/replica holds its group write lock).
func (l *Log) Crash() {
	l.mu.Lock()
	// Stop the flusher from starting another group commit, then wait out the
	// fsync already in flight: it represents real bits reaching the platter.
	l.held++
	for l.syncing {
		l.durable.Wait()
	}
	// The tail is exactly the records past the last fsync. No fsync is in
	// flight, so nobody reads its slots: the next Append reuses them.
	clear(l.tail)
	l.tail = l.tail[:0]
	l.next = l.synced + 1
	// Records appended to the store but never fsynced are part of the torn
	// tail a real crash leaves behind; reset the watermark so re-assigned
	// LSNs append fresh (recovery reads only the durable prefix).
	l.appended = l.synced
	l.appendedBytes = 0
	l.backoff = false // the machine restarted: retry the store at once
	l.release()
	// Wake commit waiters stranded on truncated records; they observe
	// DurableLSN < their lsn and report the loss.
	l.durable.Broadcast()
	l.mu.Unlock()
}

// Stats returns a snapshot of the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := Stats{
		Appends:       l.appends,
		Syncs:         l.syncs,
		SyncedRecords: l.syncedRecs,
		SyncedBytes:   l.syncedBytes,
		SyncErrors:    l.syncErrs,
		DurableLSN:    l.synced,
	}
	if l.snap != nil {
		s.SnapshotLSN = l.snap.LSN
	}
	return s
}

// Close stops the flusher after it drains pending records, wakes every
// waiter, and closes the store.
func (l *Log) Close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		<-l.done
		return
	}
	l.closed = true
	l.flush.Signal()
	l.durable.Broadcast()
	l.mu.Unlock()
	<-l.done
	l.store.Close()
}

// flusher is the group-commit loop: it takes every unsynced record (one at a
// time under Strict), writes them to the store, pays one fsync, and wakes
// the commit waiters. Records accumulating while an fsync is in flight share
// the next one — that is where the amortization comes from.
func (l *Log) flusher() {
	defer close(l.done)
	l.mu.Lock()
	for {
		for l.held > 0 || (!l.closed && l.synced == l.next-1) {
			l.flush.Wait()
		}
		if l.closed && l.synced == l.next-1 {
			l.mu.Unlock()
			return
		}
		// The batch is every unsynced record (one under Strict); the store is
		// handed only the part it has not staged yet (LSN > appended), so a
		// retry after a failed fsync re-runs the Sync without duplicating
		// records. Both are ranges of the tail, read below with the lock
		// released: see span.
		upto := l.next - 1
		if l.mode == Strict {
			upto = l.synced + 1
		}
		records := upto - l.synced
		toAppend := l.span(l.appended, upto)
		l.syncing = true
		l.mu.Unlock()

		fsyncStart := time.Now()
		var bytes int
		var err error
		if len(toAppend) > 0 {
			bytes, err = l.store.AppendRecords(toAppend)
		}
		appended := int64(0)
		if err == nil {
			appended = upto
			err = l.store.Sync()
		}
		if l.syncer != nil {
			l.syncer.Sync(bytes)
		}
		if reg := l.metrics.Load(); reg != nil {
			reg.Histogram("wal.fsync.wall").RecordDuration(time.Since(fsyncStart))
			reg.Histogram("wal.fsync.records").Record(records)
			if err != nil {
				reg.Counter("wal.fsync.errors").Add(1)
			}
		}

		l.mu.Lock()
		l.syncing = false
		if appended > l.appended {
			l.appended = appended
		}
		l.appendedBytes += int64(bytes)
		if err == nil {
			// The batch is durable, so it lives on in the store alone. The
			// flusher was the one reader of its slots with the lock
			// released: the records appended since slide to the front.
			n := copy(l.tail, l.span(upto, l.next-1))
			clear(l.tail[n:])
			l.tail = l.tail[:n]
			l.synced = upto
			l.syncs++
			l.syncedRecs += records
			l.syncedBytes += l.appendedBytes
			l.appendedBytes = 0
		} else {
			l.syncErrs++
		}
		l.durable.Broadcast()
		if err != nil {
			if l.closed {
				// Shutdown with a store that will not sync: abandon the
				// pending records rather than retrying forever.
				l.mu.Unlock()
				return
			}
			l.backoffLocked()
		}
	}
}

// syncRetryDelay spaces the flusher's retries of a failing store, so a
// persistent failure does not spin it hot.
const syncRetryDelay = 500 * time.Microsecond

// backoffLocked waits out syncRetryDelay on the flush condition, so Close
// and Crash (which signal it) end the wait at once instead of sitting
// through it. Caller holds mu.
func (l *Log) backoffLocked() {
	l.backoff = true
	t := time.AfterFunc(syncRetryDelay, func() {
		l.mu.Lock()
		l.backoff = false
		l.flush.Signal()
		l.mu.Unlock()
	})
	for l.backoff && !l.closed {
		l.flush.Wait()
	}
	t.Stop() // a callback already running ends a later back-off early: harmless
}
