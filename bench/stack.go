package main

import (
	"fmt"
	"strconv"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/net"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Dataset shape. Everything fits the 131 072-page buffer pool of every
// copy: a larger-than-pool workload is deferred, because at Scale = 0 a
// miss costs no time and at Scale > 0 sleep jitter dominates on a shared
// host (see README.md).
const (
	numUsers    = 200_000
	numRatings  = 20_000 // ≈ 10 users per rating: the scatter result size
	numShards   = 2
	numCopies   = 2    // primary + 1 synchronous replica per shard
	maxInflight = 1024 // front-door admission budget, in statement units
)

// The statements the workloads (and the probes) run.
const (
	sqlPoint   = "select nickname, rating from users where uid = ?"
	sqlScatter = "select uid, nickname from users where rating = ?"
	sqlInsert  = "insert into events values (?, ?, ?)"
	sqlEvent   = "select uid, note from events where eid = ?"
)

// dataset is the generated content of the users table and, at the same
// time, the result oracle: every expected answer is read from here, never
// from the program under test.
type dataset struct {
	seed     uint64
	nick     []string  // uid -> nickname
	rating   []int64   // uid -> rating
	byRating [][]int32 // rating -> uids in load (= uid) order
}

func newDataset(seed uint64) *dataset {
	d := &dataset{
		seed:     seed,
		nick:     make([]string, numUsers),
		rating:   make([]int64, numUsers),
		byRating: make([][]int32, numRatings),
	}
	g := newGen(seed, streamDataset)
	for uid := range d.nick {
		d.nick[uid] = "user" + strconv.Itoa(uid)
		r := g.intn(numRatings)
		d.rating[uid] = int64(r)
		d.byRating[r] = append(d.byRating[r], int32(uid))
	}
	return d
}

// eventUID and eventNote derive an inserted event's columns from its key,
// so the post-run read-back needs no record of what was written.
func (d *dataset) eventUID(eid int64) int64 {
	return int64(mix64(d.seed^uint64(eid)*0x9e3779b97f4a7c15) % numUsers)
}

func eventNote(eid int64) string { return "note" + strconv.FormatInt(eid, 10) }

// load fills a reference server the router then partitions (LoadFrom).
func (d *dataset) load(ref *server.Server) error {
	cat := ref.Catalog()
	users := cat.CreateTable("users", storage.NewSchema(
		storage.Column{Name: "uid", Type: storage.TInt},
		storage.Column{Name: "nickname", Type: storage.TString},
		storage.Column{Name: "rating", Type: storage.TInt},
	))
	users.SetRowsPerPage(8) // wide profile rows, as in apps.RUBiS
	for uid := range d.nick {
		if _, err := users.Insert([]any{int64(uid), d.nick[uid], d.rating[uid]}); err != nil {
			return err
		}
	}
	cat.CreateTable("events", storage.NewSchema(
		storage.Column{Name: "eid", Type: storage.TInt},
		storage.Column{Name: "uid", Type: storage.TInt},
		storage.Column{Name: "note", Type: storage.TString},
	))
	ref.FinishLoad()
	if err := ref.AddIndex("users", "uid", true); err != nil {
		return err
	}
	if err := ref.AddIndex("users", "rating", false); err != nil {
		return err
	}
	return ref.AddIndex("events", "eid", true)
}

// stack is the whole system under test, built from public constructors
// only: TCP front door -> shard router -> replica groups (WAL inside) ->
// simulated servers, plus the client connections and the transformed
// RUBiS kernel the program workload interprets.
type stack struct {
	data   *dataset
	groups []*replica.Group
	router *shard.Router
	reg    *obs.Registry
	front  *net.Server
	conns  []*net.Client

	// execs are what the load generators call: the bare connections, or —
	// in a traced run — the client-side shims around them.
	execs []query.Executor

	rubisReg  *ir.Registry
	rubisOrig *ir.Proc
	rubisTx   *ir.Proc
}

// buildStack is the measured set-up: dataset build, load, partition, warm,
// listen, dial and the program transformation. tr == nil builds the
// production posture with no shim anywhere; a tracer interposes
// pass-through shims at every seam the public API offers (trace.go).
func buildStack(seed uint64, clients int, tr *tracer) (_ *stack, err error) {
	s := &stack{data: newDataset(seed), reg: obs.NewRegistry()}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	// The reference server holds the whole dataset only until the router
	// has partitioned it.
	ref := server.New(server.SYS1(), 0)
	defer ref.Close()
	if err := s.data.load(ref); err != nil {
		return nil, fmt.Errorf("load reference: %w", err)
	}

	// Scale = 0: simulated latencies are accounted (VirtualTime) but never
	// slept, so wall and CPU time are this repository's own code.
	mkGroup := func() *replica.Group {
		opts := replica.Options{Replicas: numCopies - 1, Durability: wal.Group}
		if tr != nil {
			opts.Store = tr.wrapStore(wal.NewMemStore())
		}
		g := replica.NewGroup(server.SYS1(), 0, opts)
		s.groups = append(s.groups, g)
		return g
	}
	mkBackend := func() shard.Backend {
		if tr != nil {
			return tr.wrapBackend(mkGroup())
		}
		return mkGroup()
	}
	backends := make([]shard.Backend, numShards)
	for i := range backends {
		backends[i] = mkBackend()
	}
	s.router = shard.NewWithBackends(backends, map[string]string{"users": "uid", "events": "eid"})
	s.router.SetBackendFactory(mkBackend)
	if err := s.router.LoadFrom(ref); err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	s.router.Warm()
	s.router.RegisterMetrics(s.reg, "")

	var door query.Executor = s.router
	if tr != nil {
		door = tr.wrapDoor(s.router)
	}
	s.front = net.NewServer(door, net.ServerOptions{MaxInflight: maxInflight, Metrics: s.reg})
	if err := s.front.Listen("127.0.0.1:0"); err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	for i := 0; i < clients; i++ {
		c, err := net.Dial(s.front.Addr())
		if err != nil {
			return nil, fmt.Errorf("dial: %w", err)
		}
		s.conns = append(s.conns, c)
		if tr != nil {
			s.execs = append(s.execs, tr.wrapClient(c))
		} else {
			s.execs = append(s.execs, c)
		}
	}

	if err := s.transformProgram(); err != nil {
		return nil, err
	}
	return s, nil
}

// transformProgram parses the RUBiS kernel and rewrites it for asynchronous
// submission, as the paper's tool would before the program ships.
func (s *stack) transformProgram() error {
	app := apps.RUBiS()
	s.rubisReg = app.Registry()
	s.rubisOrig = app.Proc()
	opts := core.DefaultOptions()
	opts.Registry = s.rubisReg
	tx, rep, err := core.Transform(s.rubisOrig, opts)
	if err != nil {
		return fmt.Errorf("transform: %w", err)
	}
	if rep.TransformedCount() == 0 {
		return fmt.Errorf("transform: RUBiS kernel was not rewritten")
	}
	s.rubisTx = tx
	return nil
}

// close tears the stack down front to back and waits for every goroutine
// the layers own.
func (s *stack) close() {
	for _, c := range s.conns {
		c.Close()
	}
	if s.front != nil {
		s.front.Close()
	}
	if s.router != nil {
		s.router.Close()
	}
}

// walStats sums the per-shard log counters.
func (s *stack) walStats() wal.Stats {
	var sum wal.Stats
	for _, g := range s.groups {
		st := g.WALStats()
		sum.Appends += st.Appends
		sum.Syncs += st.Syncs
		sum.SyncedRecords += st.SyncedRecords
		sum.SyncedBytes += st.SyncedBytes
	}
	return sum
}
