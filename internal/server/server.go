// Package server simulates the database server of the paper's experiments:
// K worker cores, an LRU buffer pool over a seek-modelled disk, prepared
// mini-SQL statements, and a client-visible network round-trip per request.
// Two profiles mirror the paper's systems (SYS1, a commercial dual-core
// server, and PostgreSQL on a two-processor machine), plus a high-latency
// web-service profile for Experiment 5.
//
// The mechanisms — not constants — produce the paper's phenomena:
//
//   - network round-trip latency is paid per request and hidden by
//     concurrent submission (client worker pool),
//   - warm vs cold cache emerges from the buffer pool's residency,
//   - concurrent cold-cache queries queue at the disk, whose elevator
//     scheduling cuts per-request seek time as depth grows,
//   - multiple cores let CPU work proceed in parallel.
package server

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/simclock"
	"repro/internal/sqlmini"
	"repro/internal/storage"
)

// ErrInjected is the transport-level fault FailNext injects: the request
// reaches the server (the round trip is paid) but execution never starts.
// It is deliberately free of any replica/shard vocabulary so a failing
// single server and a fully failed replica group surface the identical
// error text.
var ErrInjected = errors.New("server: injected fault")

// IsFault reports whether err is an injected transport fault (as opposed to
// a statement error, which every copy of the data reproduces identically).
// Failover layers (internal/replica) key their health tracking on this.
func IsFault(err error) bool { return errors.Is(err, ErrInjected) }

// Profile is a server configuration.
type Profile struct {
	Name        string
	Cores       int
	BufferPages int
	RTT         time.Duration // client-observed network round trip
	CPUFixed    time.Duration // per-statement planning/dispatch cost
	CPUPerRow   time.Duration // per examined row
	Disk        disk.Params
}

// SYS1 models the paper's commercial system: a dual-core machine with a
// large buffer pool and fast dispatch.
func SYS1() Profile {
	return Profile{
		Name:        "SYS1",
		Cores:       2,
		BufferPages: 1 << 17,
		RTT:         500 * time.Microsecond,
		CPUFixed:    8 * time.Microsecond,
		CPUPerRow:   40 * time.Nanosecond,
		Disk:        disk.DefaultParams(),
	}
}

// Postgres models the paper's PostgreSQL deployment: two processors,
// somewhat higher per-statement overhead.
func Postgres() Profile {
	p := Profile{
		Name:        "PostgreSQL",
		Cores:       2,
		BufferPages: 1 << 17,
		RTT:         500 * time.Microsecond,
		CPUFixed:    14 * time.Microsecond,
		CPUPerRow:   60 * time.Nanosecond,
		Disk:        disk.DefaultParams(),
	}
	p.Disk.TransferPerPage = 70 * time.Microsecond
	return p
}

// WebService models Experiment 5's remote JSON-over-HTTP service: wide-area
// round trips dominate; the backing store is small and warm.
func WebService() Profile {
	return Profile{
		Name:        "WebService",
		Cores:       8,
		BufferPages: 1 << 17,
		RTT:         25 * time.Millisecond,
		CPUFixed:    500 * time.Microsecond,
		CPUPerRow:   100 * time.Nanosecond,
		Disk:        disk.DefaultParams(),
	}
}

// Server is one simulated database instance.
type Server struct {
	Profile Profile
	clock   *simclock.Clock

	cat   *storage.Catalog
	pool  *buffer.Pool
	disk  *disk.Disk
	cores chan struct{}

	prep sqlmini.PrepCache

	// Activity counters are atomics: every Exec on every worker bumps them,
	// and a shared mutex here was the last global serialization point on the
	// warm hot path.
	queries atomic.Int64
	inserts atomic.Int64
	rows    atomic.Int64
	netReqs atomic.Int64 // client-visible round trips (one per Exec or ExecBatch)
	batches atomic.Int64 // ExecBatch calls

	// failNext counts armed fault injections: while positive, each arriving
	// Exec/ExecBatch call consumes one and fails with ErrInjected.
	failNext atomic.Int64

	// extents tracks (extent -> page count) for warming.
	extMu   sync.Mutex
	extents map[int]int
}

// New starts a server with the given profile; scale is the wall-clock
// scaling factor for all simulated latencies (see simclock).
func New(p Profile, scale float64) *Server {
	clock := simclock.New(scale)
	d := disk.New(p.Disk, clock)
	s := &Server{
		Profile: p,
		clock:   clock,
		cat:     storage.NewCatalog(),
		pool:    buffer.NewPool(p.BufferPages, d),
		disk:    d,
		cores:   make(chan struct{}, max(1, p.Cores)),
		extents: make(map[int]int),
	}
	return s
}

// Close waits for the disk requests in service or queued and refuses new ones.
func (s *Server) Close() { s.disk.Close() }

// RegisterMetrics registers the server's stats as a pull source under prefix.
func (s *Server) RegisterMetrics(reg *obs.Registry, prefix string) {
	reg.RegisterSource(prefix+"server", func() map[string]float64 {
		return s.Stats().Metrics()
	})
}

// walPageBytes is the modelled page size of log writes: one group commit of
// n encoded bytes is one batched disk write of ceil(n/walPageBytes) pages.
const walPageBytes = 8 << 10

// SyncWAL charges one fsync of n encoded bytes: a batched write at the
// disk's dedicated log track. Sequential log writes always land on the same
// track, so the seek component stays near the minimum and the cost scales
// with the batch size — which is why group commit amortizes.
func (s *Server) SyncWAL(bytes int) {
	pages := (bytes + walPageBytes - 1) / walPageBytes
	if pages < 1 {
		pages = 1
	}
	s.disk.Write(s.Profile.Disk.Tracks-1, pages)
}

// Catalog exposes the table catalog for data loading.
func (s *Server) Catalog() *storage.Catalog { return s.cat }

// Pool exposes the buffer pool (tests).
func (s *Server) Pool() *buffer.Pool { return s.pool }

// RegisterExtent lays an extent out on disk and remembers its size for
// warming. Extents are spread across the disk surface so different tables'
// pages interleave, producing realistic seek distances.
func (s *Server) RegisterExtent(extent, pages int) {
	startTrack := (extent * 1543) % s.Profile.Disk.Tracks
	s.pool.MapExtent(extent, startTrack)
	s.extMu.Lock()
	s.extents[extent] = pages
	s.extMu.Unlock()
}

// FinishLoad registers every table's data extent after bulk loading.
// Index extents are registered by LoadIndex.
func (s *Server) FinishLoad() {
	for _, t := range s.cat.Tables() {
		s.RegisterExtent(t.Extent, t.NumPages())
	}
}

// AddIndex creates a hash index on a table column and registers its extent.
func (s *Server) AddIndex(table, column string, unique bool) error {
	t := s.cat.Table(table)
	if t == nil {
		return fmt.Errorf("server: no table %q", table)
	}
	pages := max(1, t.NumPages()/8)
	ext := s.cat.NextExtent()
	if err := t.AddIndex(column, unique, ext, pages); err != nil {
		return err
	}
	s.RegisterExtent(ext, pages)
	return nil
}

// FailNext arms fault injection: the next n Exec/ExecBatch calls
// fail with ErrInjected after paying their round trip, modelling a server
// that crashes mid-service (tests, failover drills). A batch call counts as
// one fault and fails every binding.
func (s *Server) FailNext(n int) { s.failNext.Store(int64(n)) }

// takeFault consumes one armed fault, if any.
func (s *Server) takeFault() bool {
	for {
		n := s.failNext.Load()
		if n <= 0 {
			return false
		}
		if s.failNext.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

// CreateTable creates an empty table with the given schema and page fanout —
// the bulk-load path a copy is built through (no simulated cost; see
// wal.Loader).
func (s *Server) CreateTable(name string, schema *storage.Schema, rowsPerPage int) error {
	t := s.cat.CreateTable(name, schema)
	t.SetRowsPerPage(rowsPerPage)
	return nil
}

// InsertRow appends one row directly through storage (a generator's bulk
// load, no simulated cost).
func (s *Server) InsertRow(table string, row []any) error {
	t := s.cat.Table(table)
	if t == nil {
		return fmt.Errorf("server: no table %q", table)
	}
	_, err := t.Insert(row)
	return err
}

// AppendRows appends rows rids of v column by column through storage (the
// bulk-load path a copy is built through, no simulated cost; see wal.Loader).
func (s *Server) AppendRows(table string, v *storage.View, rids []int) error {
	t := s.cat.Table(table)
	if t == nil {
		return fmt.Errorf("server: no table %q", table)
	}
	return t.AppendRows(v, rids)
}

// Copies returns the servers holding this backend's data, the authoritative
// one first: a bare server is its own only copy (see shard.Backend).
func (s *Server) Copies() []*Server { return []*Server{s} }

// IndexKeyCount reports how many rows of table hold value v in the indexed
// column col; ok is false when the table or index does not exist (no
// statistics). The scatter planner's pruning fast path reads this without a
// simulated round trip, modelling a client-side statistics cache.
func (s *Server) IndexKeyCount(table, col string, v any) (int, bool) {
	t := s.cat.Table(table)
	if t == nil {
		return 0, false
	}
	return t.IndexKeyCount(col, v)
}

// Warm preloads every registered extent into the buffer pool (warm-cache
// runs). Cold runs call ColdStart instead.
func (s *Server) Warm() {
	s.extMu.Lock()
	defer s.extMu.Unlock()
	for ext, pages := range s.extents {
		s.pool.Preload(ext, 0, pages)
	}
}

// ColdStart empties the buffer pool.
func (s *Server) ColdStart() { s.pool.Reset() }

// Exec is the blocking query path: one network round trip, then execution.
// It implements query.Executor and is safe for concurrent use — the
// concurrency benefits of asynchronous submission arise precisely because
// multiple Execs can be in flight. The request's optional context rides the
// struct: its Span grows a "server.exec" child (with io / cpu sub-spans; a
// nil span costs a few nil checks and nothing else) and its Deadline is
// checked on arrival — an expired request is rejected after the round trip,
// before execution.
//
// The result carries the execution trace (sqlmini.ExecInfo, including the
// matched row ids); the shard router's scatter-gather merge consumes it to
// restore the global row order.
func (s *Server) Exec(req query.Request) query.Result {
	c, rep := query.Call{Request: req}, query.Reply{}
	s.Do(&c, &rep)
	return rep.Result()
}

// ExecBatch is the set-oriented query path (batched submission): one network
// round trip and one planning/dispatch charge cover the whole binding set,
// and execution shares page accesses across bindings (sqlmini.ExecuteBatch).
// It returns one result and one error per binding, in binding order, each
// identical to what Exec would have returned for that binding. For INSERT
// batches the result's Info.InsertRids records where every binding's row
// landed, which the shard router uses to keep scatter-gather merges in exact
// single-server insertion order. One "server.execbatch" child span covers
// the whole binding set, mirroring how one round trip and one planning
// charge do; the deadline semantics match Exec, applied batch-wide.
func (s *Server) ExecBatch(req query.BatchRequest) query.BatchResult {
	c, rep := query.BatchCall(req), query.Reply{}
	s.Do(&c, &rep)
	return rep.BatchResult()
}

// Do is the one admission-execute-charge sequence behind both shapes
// (query.Doer; a row result stays a *interp.RowSet, which Exec/ExecBatch box):
// round trip (paid and counted whether or not the statement succeeds),
// deadline, injected fault, prepare; the IO phase on the sqlmini kernel (a
// single call enters it as a set of one binding); then the CPU charge and the
// activity counters. A call none of
// whose bindings succeeded charges no CPU and counts nothing beyond its
// round trip, like that many failing per-query calls.
func (s *Server) Do(c *query.Call, rep *query.Reply) {
	name := "server.exec"
	if c.Batch() {
		name = "server.execbatch"
		s.batches.Add(1)
	}
	ex := c.Span.Child(name)
	defer ex.End()
	s.clock.Sleep(s.Profile.RTT)
	ex.Charge(s.Profile.RTT)
	s.netReqs.Add(1)
	if c.Deadline.Expired() {
		c.Fail(query.ErrDeadlineExceeded, rep)
		return
	}
	if s.takeFault() {
		c.Fail(ErrInjected, rep)
		return
	}
	st, err := s.prep.Prepare(c.SQL)
	if err != nil {
		c.Fail(err, rep)
		return
	}
	// IO phase: page faults ride the disk queue without holding a core; a
	// batch dedupes page accesses across bindings before touching the pool.
	var ok int64
	io := ex.Child("server.io")
	if c.Batch() {
		rep.Values, rep.Errs, rep.Info = sqlmini.ExecuteBatch(st, s.cat, s.pool, c.ArgSets)
		for _, e := range rep.Errs {
			if e == nil {
				ok++
			}
		}
	} else if rep.Value, rep.Info, rep.Err = sqlmini.Execute(st, s.cat, s.pool, c.Args); rep.Err == nil {
		ok = 1
	}
	io.End()
	if ok == 0 {
		return
	}
	// CPU phase: one fixed planning charge for the whole call, then the
	// per-row work, holding one of the K cores.
	cpu := s.Profile.CPUFixed + time.Duration(rep.Info.RowsExamined)*s.Profile.CPUPerRow
	cpuSp := ex.Child("server.cpu")
	s.cores <- struct{}{}
	s.clock.Sleep(cpu)
	<-s.cores
	cpuSp.Charge(cpu)
	cpuSp.End()

	s.queries.Add(ok)
	if st.Insert {
		s.inserts.Add(ok)
	}
	s.rows.Add(int64(rep.Info.RowsExamined))
}

// Stats summarizes server activity. NetRequests counts client-visible round
// trips (each paying Profile.RTT); with batching it falls below Queries,
// which keeps counting logical statements.
type Stats struct {
	Queries     int64
	Inserts     int64
	RowsRead    int64
	NetRequests int64
	Batches     int64
	BufferHits  int64
	BufferMiss  int64
	Disk        disk.Stats
	VirtualTime time.Duration
}

// Metrics flattens the stats for an obs registry source.
func (s Stats) Metrics() map[string]float64 {
	return map[string]float64{
		"queries":         float64(s.Queries),
		"inserts":         float64(s.Inserts),
		"rows.read":       float64(s.RowsRead),
		"net.requests":    float64(s.NetRequests),
		"batches":         float64(s.Batches),
		"buffer.hits":     float64(s.BufferHits),
		"buffer.miss":     float64(s.BufferMiss),
		"disk.requests":   float64(s.Disk.Requests),
		"disk.pages.read": float64(s.Disk.PagesRead),
		"disk.writes":     float64(s.Disk.Writes),
		"disk.avg.queue":  s.Disk.AvgQueue,
		"virtual.seconds": s.VirtualTime.Seconds(),
	}
}

// Add folds another copy's or shard's counters into s, the one aggregation
// replica groups and shard routers share: counts sum (a replicated write is
// real work on every copy), MaxQueue and VirtualTime take the maximum
// (copies burn simulated time in parallel), and AvgQueue is the
// request-weighted mean.
func (s *Stats) Add(o Stats) {
	s.Queries += o.Queries
	s.Inserts += o.Inserts
	s.RowsRead += o.RowsRead
	s.NetRequests += o.NetRequests
	s.Batches += o.Batches
	s.BufferHits += o.BufferHits
	s.BufferMiss += o.BufferMiss
	if n := s.Disk.Requests + o.Disk.Requests; n > 0 {
		s.Disk.AvgQueue = (s.Disk.AvgQueue*float64(s.Disk.Requests) +
			o.Disk.AvgQueue*float64(o.Disk.Requests)) / float64(n)
	}
	s.Disk.Requests += o.Disk.Requests
	s.Disk.PagesRead += o.Disk.PagesRead
	s.Disk.Writes += o.Disk.Writes
	s.Disk.PagesWritten += o.Disk.PagesWritten
	s.Disk.SeekTime += o.Disk.SeekTime
	s.Disk.BusyTime += o.Disk.BusyTime
	s.Disk.MaxQueue = max(s.Disk.MaxQueue, o.Disk.MaxQueue)
	s.VirtualTime = max(s.VirtualTime, o.VirtualTime)
}

// Stats returns a snapshot.
func (s *Server) Stats() Stats {
	h, m := s.pool.Stats()
	return Stats{
		Queries:     s.queries.Load(),
		Inserts:     s.inserts.Load(),
		RowsRead:    s.rows.Load(),
		NetRequests: s.netReqs.Load(),
		Batches:     s.batches.Load(),
		BufferHits:  h,
		BufferMiss:  m,
		Disk:        s.disk.Stats(),
		VirtualTime: s.clock.VirtualSpent(),
	}
}
