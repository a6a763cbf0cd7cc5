// Package replica fronts one database shard with a primary and R read
// replicas, adding read scaling, failover, durability and crash recovery to
// the sharded scatter-gather backend (internal/shard).
//
// The consistency and durability contract (see README.md):
//
//   - Writes (INSERTs) execute on the primary and append to the group's
//     write-ahead log (internal/wal); the acknowledgement waits until the
//     record is durable under the configured wal.Mode (Group by default:
//     concurrent commits share one fsync). Everything acknowledged survives
//     CrashPrimary + RestartPrimary via snapshot + log replay, on the
//     original row ids — the property the scatter-gather merge's global
//     row-order maps depend on.
//   - Every committed write is replicated to every healthy replica under one
//     group-wide write lock, before it is acknowledged, so reads from any
//     copy are byte-identical to a single server. A replica that faults is
//     failed out; Recover replays the log suffix it missed and readmits it
//     byte-identical.
//   - Replication applies a record to the replicas in parallel, so for a
//     moment one replica can serve LSN n while another still holds n-1. The
//     group keeps a monotonic "served" floor, and a read goes only to a copy
//     that has reached it, so successive reads never travel backwards.
//
// The Group implements query.Executor — the same Exec(Request)/
// ExecBatch(BatchRequest) pair as server.Server — and satisfies
// shard.Backend, so a Router over replica groups is a drop-in for a Router
// over bare servers. Request context consumed here: Span (write-lock /
// replication / wal-commit children) and Deadline (writes are rejected
// before the primary executes or abandoned at the commit wait — never
// half-acked).
package replica

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/sqlmini"
	"repro/internal/wal"
)

// ErrPrimaryDown is returned for writes (and reads no replica can serve)
// while the primary is crashed and not yet restarted.
var ErrPrimaryDown = errors.New("replica: primary down")

// Options configure a group.
type Options struct {
	// Replicas is the number of read replicas fronting the primary
	// (minimum 1).
	Replicas int
	// Durability is the commit acknowledgement mode of the group's
	// write-ahead log. The zero value is wal.Group: acknowledged writes are
	// durable, with the fsync amortized across concurrent commits.
	Durability wal.Mode
	// Store is the WAL's persistence backend (nil: in-memory).
	Store wal.Store
	// Breaker, when positive, arms the per-replica circuit breaker with this
	// cooldown (see failOut): a replica the health tracker fails out is
	// probed back in after it, instead of waiting for an explicit Recover.
	// Zero keeps the historical contract: out until Recover.
	Breaker time.Duration
	// Fault, when set, injects ReplicaCrash decisions ahead of replica read
	// attempts (the crashed attempt faults, and the fail-out / breaker
	// machinery absorbs it) and fsync stalls and errors into the
	// group's log store (fault.NewStore). Nil means no injection.
	Fault *fault.Injector
}

// state is the health tracker's view of one replica.
type state struct {
	healthy atomic.Bool
	reads   atomic.Int64 // read statements served
	faults  atomic.Int64 // times failOut took this replica out of rotation
	applied atomic.Int64 // highest log record applied to this replica

	// tainted marks a replica that applied records a primary crash then
	// dropped from the log: its applied watermark names state that no longer
	// exists, so Recover must rebuild it from a snapshot instead of trusting
	// the watermark.
	tainted atomic.Bool

	// bmu/bstate are the replica's circuit breaker (see resilience.go);
	// bstate only changes when Options.Breaker is set.
	bmu    sync.Mutex
	bstate int32
}

// Group is one replicated shard: a primary owning writes, a write-ahead log
// owning durability, plus R read replicas. It is safe for concurrent use.
type Group struct {
	prof  server.Profile // crashed copies are rebuilt from this
	scale float64

	log *wal.Log

	pmu         sync.RWMutex
	primary     *server.Server
	primaryDown bool

	rmu      sync.RWMutex
	replicas []*server.Server

	states []*state

	// prep caches parses for routing (read vs write) only; the servers keep
	// their own caches and pay their own planning charge.
	prep sqlmini.PrepCache

	rr atomic.Uint64 // round-robin cursor

	// wmu serializes writes (and crash/recovery transitions) across the
	// whole group: the primary, the log and every replica see one global
	// write order, keeping row ids identical on all copies.
	wmu sync.Mutex

	commit atomic.Int64 // highest acknowledged write LSN
	served atomic.Int64 // monotonic floor of LSNs reads were served at

	closed  atomic.Bool
	zombies []*server.Server

	// Resilience layer (see resilience.go): per-replica circuit breakers
	// and injected replica crashes.
	breaker time.Duration // cooldown; 0 = no breaker
	fault   *fault.Injector

	reg          atomic.Pointer[obs.Registry]
	res          resCounters
	openBreakers atomic.Int64

	stop chan struct{}  // closed by Close: unblocks sleeping probes
	bgMu sync.Mutex     // guards bgWg.Add vs Close
	bgWg sync.WaitGroup // breaker probes
}

// NewGroup starts a primary and opts.Replicas fresh replicas of the given
// profile; scale is the wall-clock factor for simulated latencies (as in
// server.New). Load data onto Copies() before executing.
func NewGroup(prof server.Profile, scale float64, opts Options) *Group {
	n := opts.Replicas
	if n < 1 {
		n = 1
	}
	g := &Group{
		prof:     prof,
		scale:    scale,
		primary:  server.New(prof, scale),
		replicas: make([]*server.Server, n),
		states:   make([]*state, n),
		breaker:  opts.Breaker,
		fault:    opts.Fault,
		stop:     make(chan struct{}),
	}
	for i := range g.states {
		g.replicas[i] = server.New(prof, scale)
		g.states[i] = &state{}
		g.states[i].healthy.Store(true)
	}
	store := opts.Store
	if opts.Fault != nil {
		if store == nil {
			store = wal.NewMemStore()
		}
		store = fault.NewStore(store, opts.Fault)
	}
	g.log = wal.New(wal.Options{Mode: opts.Durability, Store: store, Syncer: groupSyncer{g}})
	return g
}

// groupSyncer charges the log's fsyncs to the current primary's disk; while
// the primary is down the log is unreachable anyway (no writes commit), so
// a drain-time fsync is free.
type groupSyncer struct{ g *Group }

func (s groupSyncer) Sync(bytes int) {
	s.g.pmu.RLock()
	p, down := s.g.primary, s.g.primaryDown
	s.g.pmu.RUnlock()
	if down || p == nil {
		return
	}
	p.SyncWAL(bytes)
}

// Primary exposes the write master (tests, fault drills).
func (g *Group) Primary() *server.Server {
	g.pmu.RLock()
	defer g.pmu.RUnlock()
	return g.primary
}

// Replicas exposes the read copies (tests, fault drills).
func (g *Group) Replicas() []*server.Server {
	g.rmu.RLock()
	defer g.rmu.RUnlock()
	return append([]*server.Server(nil), g.replicas...)
}

func (g *Group) replica(i int) *server.Server {
	g.rmu.RLock()
	defer g.rmu.RUnlock()
	return g.replicas[i]
}

// Log exposes the group's write-ahead log (tests, stats).
func (g *Group) Log() *wal.Log { return g.log }

// RegisterMetrics registers the group's aggregate stats and its WAL's as
// pull sources under prefix, and points the log's fsync histograms and the
// resilience counters at reg.
func (g *Group) RegisterMetrics(reg *obs.Registry, prefix string) {
	g.reg.Store(reg)
	g.log.SetMetrics(reg)
	reg.RegisterSource(prefix+"group", func() map[string]float64 {
		return g.Stats().Metrics()
	})
	reg.RegisterSource(prefix+"wal", func() map[string]float64 {
		return g.WALStats().Metrics()
	})
}

// CommitLSN returns the highest acknowledged write LSN.
func (g *Group) CommitLSN() int64 { return g.commit.Load() }

// AppliedLSNs reports each replica's applied prefix.
func (g *Group) AppliedLSNs() []int64 {
	out := make([]int64, len(g.states))
	for i, st := range g.states {
		out[i] = st.applied.Load()
	}
	return out
}

// Healthy reports each replica's rotation status.
func (g *Group) Healthy() []bool {
	out := make([]bool, len(g.states))
	for i, st := range g.states {
		out[i] = st.healthy.Load()
	}
	return out
}

// ReadCounts reports how many read statements each replica has served — the
// load-balancing evidence the replica-scale figure prints.
func (g *Group) ReadCounts() []int64 {
	out := make([]int64, len(g.states))
	for i, st := range g.states {
		out[i] = st.reads.Load()
	}
	return out
}

// Faults reports how many times the health tracker has failed each replica
// out (failOut: a faulted read or a failed apply). Administrative FailOut and
// crash taints are not counted.
func (g *Group) Faults() []int64 {
	out := make([]int64, len(g.states))
	for i, st := range g.states {
		out[i] = st.faults.Load()
	}
	return out
}

// FailOut administratively removes replica i from the read rotation (the
// health tracker does this automatically on an observed fault).
func (g *Group) FailOut(i int) { g.states[i].healthy.Store(false) }

// Recover brings replica i back into the read rotation (catchUp): the log
// suffix the replica missed is replayed before it is readmitted (a replay
// fault keeps it down, suffix intact). Recovering a healthy replica is a
// no-op. Safe to call concurrently; calls serialize on the group write lock.
func (g *Group) Recover(i int) error {
	g.wmu.Lock()
	defer g.wmu.Unlock()
	if g.states[i].healthy.Load() {
		return nil
	}
	return g.catchUp(i)
}

// primaryCopy names the primary to catchUp and apply; replicas go by index.
const primaryCopy = -1

// catchUp is the one way a copy comes back (caller holds wmu; a replica is
// out of rotation): if the copy is a crashed primary, is tainted, or the
// log's memory starts after its applied LSN, rebuild it from the latest
// snapshot; then replay the durable suffix; then readmit it. A
// rebuilt replica takes its slot before the replay, so a replay fault leaves
// its watermark on what its server really holds; a rebuilt primary takes
// over only after it, so the crashed one's catalog (index statistics,
// migration cutoffs) stays readable until the new one is whole.
func (g *Group) catchUp(i int) error {
	g.log.SyncTo(g.log.LastLSN()) // replay must see every acknowledged write, even under wal.Off
	primary := i == primaryCopy
	var st *state
	var s *server.Server
	var at int64
	if !primary {
		st, s = g.states[i], g.replica(i)
		at = st.applied.Load()
	}
	if primary || st.tainted.Load() || at < g.log.TailStart() {
		snap := g.log.Snapshot()
		if snap == nil {
			return errors.New("replica: no snapshot to rebuild a copy from")
		}
		s, at = server.New(g.prof, g.scale), snap.LSN
		if err := snap.RestoreTo(s); err != nil {
			s.Close()
			return err
		}
		if !primary {
			g.rmu.Lock()
			g.zombies = append(g.zombies, g.replicas[i])
			g.replicas[i] = s
			g.rmu.Unlock()
			st.applied.Store(at)
			st.tainted.Store(false)
		}
	}
	fail := func(err error) error {
		if primary {
			s.Close() // never installed; a replica's copy is already in its slot
		}
		return err
	}
	recs, err := g.log.RecordsAfter(at)
	if err != nil {
		return fail(fmt.Errorf("replica: catch up from LSN %d: %w", at, err))
	}
	for _, r := range recs {
		if err := g.apply(nil, i, s, r); err != nil {
			return fail(err)
		}
	}
	if primary {
		g.pmu.Lock()
		g.primary, g.primaryDown = s, false
		g.pmu.Unlock()
		g.commit.Store(g.log.DurableLSN())
		return nil
	}
	st.healthy.Store(true)
	return nil
}

// CrashPrimary simulates losing the primary machine: the log's unsynced
// tail is gone (acknowledged writes survive under Group/Strict durability;
// Off may lose its tail), the primary stops serving, and writes fail with
// ErrPrimaryDown until RestartPrimary. Replicas keep serving the reads
// their prefix supports.
func (g *Group) CrashPrimary() {
	g.wmu.Lock()
	defer g.wmu.Unlock()
	g.pmu.RLock()
	down, p := g.primaryDown, g.primary
	g.pmu.RUnlock()
	if down {
		return
	}
	// The base state (bulk-loaded, never logged) must be in a snapshot for
	// restart to rebuild from; normally the first write captured it.
	g.ensureBaseSnapshot(p)
	// Drop the unsynced tail before parking the primary: the log's syncer
	// charges the (still healthy) primary disk for the fsync in flight.
	g.log.Crash()
	g.pmu.Lock()
	g.primaryDown = true
	g.zombies = append(g.zombies, g.primary)
	g.pmu.Unlock()
	// Nothing past the durable prefix exists anymore.
	d := g.log.DurableLSN()
	if g.commit.Load() > d {
		g.commit.Store(d)
	}
	if g.served.Load() > d {
		g.served.Store(d)
	}
	// A replica that already applied records the crash just dropped (writes
	// caught mid-durability-wait, or wal.Off's whole unsynced tail) holds
	// state the log can no longer account for — and new writes will reuse
	// those LSNs with different contents. Taint it: out of rotation now,
	// snapshot rebuild at Recover.
	for _, st := range g.states {
		if st.applied.Load() > d {
			st.tainted.Store(true)
			st.healthy.Store(false)
		}
	}
}

// PrimaryDown reports whether the primary is crashed.
func (g *Group) PrimaryDown() bool {
	g.pmu.RLock()
	defer g.pmu.RUnlock()
	return g.primaryDown
}

// RestartPrimary rebuilds a crashed primary from the latest snapshot plus
// the durable log suffix (catchUp). The restored server is byte-identical to
// the durable prefix: tables restore in creation order, rows on their
// original ids, and replay re-executes records in LSN order.
func (g *Group) RestartPrimary() error {
	g.wmu.Lock()
	defer g.wmu.Unlock()
	if !g.PrimaryDown() {
		return nil
	}
	return g.catchUp(primaryCopy)
}

// Checkpoint captures the primary's state as a snapshot at the newest LSN
// and truncates the log records it covers. Replicas whose applied prefix
// predates the truncation need a full resync at their next Recover.
func (g *Group) Checkpoint() error {
	g.wmu.Lock()
	defer g.wmu.Unlock()
	g.pmu.RLock()
	p, down := g.primary, g.primaryDown
	g.pmu.RUnlock()
	if down {
		return ErrPrimaryDown
	}
	lsn := g.log.LastLSN()
	g.log.SyncTo(lsn)
	return g.log.WriteSnapshot(wal.Capture(p.Catalog(), lsn))
}

// ensureBaseSnapshot checkpoints the bulk-loaded base state before the
// first logged write touches it: loads bypass the log, so replay alone
// cannot rebuild a crashed copy without this snapshot at LSN 0.
func (g *Group) ensureBaseSnapshot(p *server.Server) {
	if g.log.Snapshot() != nil || g.log.LastLSN() > 0 {
		return
	}
	// Base snapshot at LSN 0 (nothing logged yet); MemStore cannot fail and
	// a FileStore failure here surfaces on the restart path as "no
	// snapshot", so the error is intentionally dropped.
	_ = g.log.WriteSnapshot(wal.Capture(p.Catalog(), 0))
}

// pick returns the next healthy replica in round-robin order whose applied
// prefix reaches min, or -1 when none qualifies.
func (g *Group) pick(min int64) int {
	n := len(g.states)
	start := int(g.rr.Add(1) % uint64(n))
	for k := 0; k < n; k++ {
		i := (start + k) % n
		if g.states[i].healthy.Load() && g.states[i].applied.Load() >= min {
			return i
		}
	}
	return -1
}

// bumpServed raises the group's monotonic served floor.
func (g *Group) bumpServed(lsn int64) {
	for {
		cur := g.served.Load()
		if lsn <= cur || g.served.CompareAndSwap(cur, lsn) {
			return
		}
	}
}

// Exec routes one statement: writes through the primary + log, reads to a
// healthy replica that has reached the group's served floor. The request's
// Span grows one "replica.read" child per attempt for reads (labelled with the
// copy that served) and a "write.lock" / replication / "wal.commit" chain for
// writes; its Deadline rejects a write before the primary executes or
// abandons the acknowledgement at the commit wait.
// The result's Info carries the execution trace the shard router's
// scatter-gather merge consumes — from whichever copy served a read, from
// the primary for a write (row ids agree across copies by the
// ordered-apply contract).
func (g *Group) Exec(req query.Request) query.Result {
	c, rep := query.Call{Request: req}, query.Reply{}
	g.Do(&c, &rep)
	return rep.Result()
}

// ExecBatch is the set-oriented path: a write batch commits as one log
// record (one commit wait, like one round trip), a read batch rides one
// round trip to one replica. Request context is honoured as in
// Exec, batch-wide. For write batches the result's Info.InsertRids is the
// primary's trace (the shard router's insertion-order bookkeeping consumes
// it).
func (g *Group) ExecBatch(req query.BatchRequest) query.BatchResult {
	c, rep := query.BatchCall(req), query.Reply{}
	g.Do(&c, &rep)
	return rep.BatchResult()
}

// Do splits reads from writes for a call of either shape (query.Doer: the
// serving copy's reply is handed up as it is, row results columnar). Malformed
// statements take the read path: their error text is identical on every copy.
func (g *Group) Do(c *query.Call, rep *query.Reply) {
	if st, err := g.prep.Prepare(c.SQL); err == nil && st.Insert {
		g.write(c, rep)
		return
	}
	g.read(c, rep)
}

// read serves one read call with failover: it picks a replica, and an
// injected fault fails that replica out (tripping its breaker when one is
// configured) and picks again among the survivors; statement errors return
// immediately (every copy reproduces them identically). Only a replica that
// has reached the group's served floor may serve, so reads are monotonic
// while a write is still being applied to the replicas in parallel. When no
// replica qualifies the primary (always newest) serves. A batch rides one
// round trip to one copy.
func (g *Group) read(c *query.Call, rep *query.Reply) {
	min := g.served.Load()
	for i := g.pick(min); i >= 0; i = g.pick(min) {
		st := g.states[i]
		at := st.applied.Load()
		g.crashMaybe(i)
		readOn(c, g.replica(i), obs.ReplicaLabel(i), rep)
		// The server fails a whole call before executing any binding, so a
		// faulted attempt is safe to retry elsewhere.
		if server.IsFault(rep.FirstErr()) {
			*rep = query.Reply{}
			g.failOut(i)
			continue
		}
		st.reads.Add(int64(c.Units()))
		g.bumpServed(at)
		return
	}
	g.pmu.RLock()
	p, down := g.primary, g.primaryDown
	g.pmu.RUnlock()
	if down {
		c.Fail(ErrPrimaryDown, rep)
		return
	}
	at := g.commit.Load()
	readOn(c, p, "primary", rep)
	g.bumpServed(at)
}

// readOn runs one read attempt of c on copy s under a "replica.read" child of
// c.Span labelled with the copy. The call is re-scoped in place and put back,
// as Router.dispatch does.
func readOn(c *query.Call, s *server.Server, label string, rep *query.Reply) {
	span := c.Span
	rd := span.Child("replica.read")
	rd.SetDetail(label)
	c.Span = rd
	s.Do(c, rep)
	c.Span = span
	rd.End()
}

// write commits one call: primary execution, WAL append, replication,
// durability wait. The bindings the primary accepted
// become one log record and share one durability wait; a primary error —
// transport fault or per-binding validation — never enters the log (only
// acknowledged rows replicate or replay), and neither does a call whose
// deadline already expired when it acquires the group write lock (a clean
// rejection: nothing executed, nothing logged).
func (g *Group) write(c *query.Call, rep *query.Reply) {
	sp := c.Span
	lock := sp.Child("write.lock") // group write-order serialization wait
	g.wmu.Lock()
	lock.End()
	if c.Deadline.Expired() {
		g.wmu.Unlock()
		c.Fail(query.ErrDeadlineExceeded, rep)
		return
	}
	g.pmu.RLock()
	p, down := g.primary, g.primaryDown
	g.pmu.RUnlock()
	if down {
		g.wmu.Unlock()
		c.Fail(ErrPrimaryDown, rep)
		return
	}
	g.ensureBaseSnapshot(p)
	// The primary call carries no deadline: once execution starts the write
	// is in the log's order, and the deadline is enforced at the commit
	// wait below instead — abandoned, never half-acked.
	sub := query.Call{
		Request: query.Request{Name: c.Name, SQL: c.SQL, Args: c.Args, Span: sp},
		ArgSets: c.ArgSets,
	}
	p.Do(&sub, rep)
	var committed [][]any
	if !c.Batch() {
		if rep.Err == nil {
			committed = [][]any{c.Args}
		}
	} else {
		for i, e := range rep.Errs {
			if e == nil {
				committed = append(committed, c.ArgSets[i])
			}
		}
	}
	if len(committed) == 0 {
		g.wmu.Unlock()
		return
	}
	lsn := g.stageRecord(sp, c.Name, c.SQL, committed)
	g.wmu.Unlock()
	if err := g.awaitCommit(sp, lsn, c.Deadline); err != nil {
		// Only the bindings that had committed lose their acknowledgement;
		// a binding the primary rejected keeps its own error.
		if !c.Batch() {
			rep.Value, rep.Err = nil, err
		}
		for i, e := range rep.Errs {
			if e == nil {
				rep.Values[i], rep.Errs[i] = nil, err
			}
		}
	}
}

// stageRecord logs one committed write and replicates it. Caller holds wmu,
// which is what keeps the per-replica apply order equal to LSN order. The
// durability wait happens in awaitCommit, outside the lock, so concurrent
// commits share fsyncs (group commit).
func (g *Group) stageRecord(sp *obs.Span, name, sql string, argSets [][]any) int64 {
	lsn := g.log.Append(name, sql, argSets)
	g.replicate(sp, wal.Record{LSN: lsn, Name: name, SQL: sql, ArgSets: argSets})
	return lsn
}

// awaitCommit waits until the record at lsn is durable per the log's mode,
// then advances the acknowledged-write watermark. A primary crash racing the
// wait truncates the record away; the
// write then reports ErrPrimaryDown instead of acknowledging state that no
// longer exists. A deadline expiring first abandons the wait with
// query.ErrDeadlineExceeded instead — whichever condition the waiter
// observes first wins, so the client sees exactly one error either way.
func (g *Group) awaitCommit(sp *obs.Span, lsn int64, dl query.Deadline) error {
	durable, err := g.log.CommitWait(sp, lsn, dl)
	if err != nil {
		return err
	}
	if g.log.Mode() != wal.Off && durable < lsn {
		return ErrPrimaryDown
	}
	for {
		cur := g.commit.Load()
		if lsn <= cur || g.commit.CompareAndSwap(cur, lsn) {
			break
		}
	}
	return nil
}

// replicate applies one committed record to every healthy replica — in
// parallel, but under the group write lock, so the per-replica order equals
// the primary's. The last healthy replica is applied on the caller's
// goroutine and only the others are spawned: a group with one synchronous
// replica starts no goroutine per write. A replica that faults mid-apply is
// failed out with its applied watermark unchanged, so Recover replays
// exactly what it missed.
func (g *Group) replicate(sp *obs.Span, rec wal.Record) {
	var wg *sync.WaitGroup // allocated with the first spawn, so never for one replica
	inline := -1
	for i, st := range g.states {
		if !st.healthy.Load() {
			continue
		}
		if inline >= 0 {
			if wg == nil {
				wg = new(sync.WaitGroup)
			}
			wg.Add(1)
			go func(i int, wg *sync.WaitGroup) {
				defer wg.Done()
				g.apply(sp, i, g.replica(i), rec)
			}(inline, wg)
		}
		inline = i
	}
	if inline < 0 {
		return
	}
	g.apply(sp, inline, g.replica(inline), rec)
	if wg != nil {
		wg.Wait()
	}
}

// apply is the one way a log record reaches a copy — replication, suffix
// replay and primary restart alike:
// rec re-executes on s as one batch call. When s is replica i, the first error
// fails it out with its watermark unchanged, so a later catch-up replays
// exactly what it missed, and success advances the watermark; the primary
// (primaryCopy) has neither.
func (g *Group) apply(sp *obs.Span, i int, s *server.Server, rec wal.Record) error {
	ap := sp.Child("replica.apply")
	if ap != nil {
		ap.SetDetail(obs.ReplicaLabel(i))
	}
	c, rep := query.BatchCall(rec.Request()), query.Reply{}
	c.Span = ap
	s.Do(&c, &rep)
	err := rep.FirstErr()
	ap.End()
	if i == primaryCopy {
		return err
	}
	if err != nil {
		g.failOut(i)
		return err
	}
	g.states[i].applied.Store(rec.LSN)
	return nil
}

// ---- copies, cache and clock control (shard.Backend) ----

// Copies returns every live copy, primary first: the set a bulk load fills
// (wal.Copy) and, through the primary's catalog, the source a migration
// reads. A crashed primary stays listed until RestartPrimary replaces it, its
// catalog readable as the crash left it — rows of writes the crash
// un-acknowledged included; nothing clamps it to the durable prefix.
func (g *Group) Copies() []*server.Server {
	return append([]*server.Server{g.Primary()}, g.Replicas()...)
}

// IndexKeyCount reads the primary's index statistics (every copy holds the
// same data, so one answer speaks for the group).
func (g *Group) IndexKeyCount(table, col string, v any) (int, bool) {
	return g.Primary().IndexKeyCount(table, col, v)
}

// Warm preloads every copy's registered extents.
func (g *Group) Warm() {
	for _, s := range g.Copies() {
		s.Warm()
	}
}

// ColdStart empties every copy's buffer pool.
func (g *Group) ColdStart() {
	for _, s := range g.Copies() {
		s.ColdStart()
	}
}

// Close stops the breaker probes, drains and closes the log, then
// shuts down every copy (crashed/resynced ones included).
func (g *Group) Close() {
	if g.closed.Swap(true) {
		return
	}
	// Stop the breaker probes first: sleeping probes wake via stop,
	// in-flight ones finish against the still-open log and copies, and
	// guardGo refuses new ones once closed is set.
	g.bgMu.Lock()
	close(g.stop)
	g.bgMu.Unlock()
	g.bgWg.Wait()
	g.log.Close()
	for _, s := range g.Copies() {
		s.Close()
	}
	g.wmu.Lock()
	zombies := g.zombies
	g.zombies = nil
	g.wmu.Unlock()
	for _, s := range zombies {
		s.Close()
	}
}

// WALStats returns the log's counters (fsync count, group-commit factor).
func (g *Group) WALStats() wal.Stats { return g.log.Stats() }

// Stats aggregates the group's per-copy counters (server.Stats.Add).
func (g *Group) Stats() server.Stats {
	var agg server.Stats
	for _, s := range g.Copies() {
		agg.Add(s.Stats())
	}
	return agg
}
