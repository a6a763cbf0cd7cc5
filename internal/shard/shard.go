// Package shard partitions the simulated database across N independent
// server.Server backends and routes queries to them — the scaling axis that
// lets the batching layer's set-oriented submissions execute in parallel per
// shard (see README.md).
//
// Tables declare a shard key (Options.Keys); rows live on the shard that
// owns their key's hash. Point statements — an equality predicate on the
// shard key, or an INSERT whose VALUES bind it — route to the owning shard.
// Everything else scatter-gathers: the statement runs on every shard and the
// router merges the partial results deterministically, so a sharded cluster
// is observably identical to one big server. A single call is routed as a
// batch of one binding. A call whose bindings all route to one shard goes
// there whole; a batch whose bindings route apart is split into per-shard
// sub-batches that run in parallel and are demultiplexed into binding order.
//
// The Router implements query.Executor — the same Exec(Request)/
// ExecBatch(BatchRequest) pair as its backends — so exec.Service, the
// internal/batch coalescer, the network front door and transformed
// programs run unchanged on top of it. Request context fans out with the
// dispatch: every shard leg gets a "shard.exec"/"shard.batch" span child and
// the request's Deadline verbatim.
package shard

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/sqlmini"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Backend is one shard's execution engine: a bare server.Server, or a
// replica.Group fronting a primary with R read replicas (Options.Group).
// One interface covers everything the router needs: Request-based statement
// execution (query.Executor — span and deadline ride the request; the
// result's Info feeds the scatter-gather merge), the
// servers that hold its data, the planner's index statistics, cache and
// lifecycle control, and the obs metrics hookup. A backend's simulated-latency
// scale is fixed when it is built.
type Backend interface {
	query.Executor

	// Copies returns the servers holding the shard's data, the authoritative
	// one (a group's primary) first: together the destination set wal.Copy
	// fills, and the first one's catalog the source a migration reads.
	Copies() []*server.Server
	IndexKeyCount(table, col string, v any) (int, bool)

	Warm()
	ColdStart()
	Close()
	Stats() server.Stats

	RegisterMetrics(reg *obs.Registry, prefix string)
}

// Options configure a router.
type Options struct {
	// Shards is the number of backends (minimum 1).
	Shards int
	// Keys maps table name -> shard key column. Tables absent from the map
	// are replicated on every shard: reads route to shard 0, writes broadcast.
	Keys map[string]string
	// Group, when Group.Replicas is positive, makes every shard — and every
	// shard a Split adds — a replica.Group built from it (internal/replica);
	// zero Replicas keeps bare single-server shards. Group.Store must be
	// nil: a store is one group's log. A cluster over backends the caller
	// builds (a store per group, wrapped backends) is NewWithBackends plus
	// SetBackendFactory.
	Group replica.Options
}

// tableInfo is the router's routing metadata for one table.
type tableInfo struct {
	key    string // shard key column; "" = replicated
	keyPos int    // schema position of key (INSERT routing); -1 when replicated

	mu sync.RWMutex
	// global maps, per shard, local row id -> global row position: rows
	// distributed by LoadFrom carry their original load position, and rows
	// inserted at runtime through Exec are appended by notePos in completion
	// order (exact for sequential programs; under concurrent submission the
	// interleaving is as undefined as insertion order on one concurrent
	// server). -1 marks a slot whose insert has not been observed yet. A
	// position is an int32: a table holds at most math.MaxInt32 rows.
	global [][]int32
	loaded int // rows distributed by LoadFrom
	noted  int // runtime inserts recorded by notePos
}

// notePos records one routed runtime insert: the shard-local row rid was
// the noted-th row added after load, so scatter merges order it exactly
// where a single server would have.
func (ti *tableInfo) notePos(shard, rid int) {
	ti.mu.Lock()
	g := ti.global[shard]
	for len(g) <= rid {
		g = append(g, -1)
	}
	if g[rid] < 0 {
		g[rid] = int32(ti.loaded + ti.noted)
		ti.noted++
	}
	ti.global[shard] = g
	ti.mu.Unlock()
}

// globalPos returns the merge key of one shard-local row: mapped rows carry
// their recorded position; rows the router never saw insert (both the routed
// and the batched insert paths trace positions, so only rows inserted behind
// the router's back land here) sort after every known row in a deterministic
// (local rid, shard) order. The caller holds ti.mu's read lock.
func (ti *tableInfo) globalPos(shard, rid int) int {
	if shard < len(ti.global) && rid < len(ti.global[shard]) && ti.global[shard][rid] >= 0 {
		return int(ti.global[shard][rid])
	}
	return ti.loaded + ti.noted + rid*len(ti.global) + shard
}

// Router partitions tables across N backends and routes statements. It is
// safe for concurrent use; its Exec/ExecBatch match the exec.Runner and
// exec.BatchRunner shapes.
type Router struct {
	backends []Backend
	keys     map[string]string

	// prep caches parses client-side, for routing only; the backends keep
	// their own prepared caches and pay their own planning charge.
	prep sqlmini.PrepCache

	tmu    sync.RWMutex
	tables map[string]*tableInfo

	// pruned counts shard executions skipped by the scatter planner's
	// index-statistics fast path (see pruneTargets).
	pruned atomic.Int64

	// ranges is the live hash-range ownership map. Statements route by the
	// snapshot they load; migrations install the next generation atomically
	// under the mig write lock.
	ranges atomic.Pointer[Ranges]

	// mig fences migrations against in-flight statements: every execution
	// path holds the read side for its full duration, so the migration's
	// cutoff and flip steps (write side) see no statement mid-dispatch.
	mig sync.RWMutex
	// migMu serializes whole migrations (one Split at a time).
	migMu sync.Mutex
	// Double-write capture state, installed and cleared under mig's write
	// lock, read by execution paths under the read lock.
	migActive bool
	migSource int // the slot being split, while migActive
	pendingMu sync.Mutex
	pending   []pendingWrite
	migHook   func(phase string)

	// mk builds one more backend identical to the originals (nil when the
	// router wraps caller-supplied backends; Split then needs
	// SetBackendFactory).
	mk func() Backend

	// Migration counters (MigrationStats, shard.migrations metrics).
	splits, rowsCopied, doubleWrites atomic.Int64

	// Metrics hookup remembered so migrations can re-register swapped and
	// appended backends; guarded by mig.
	reg       *obs.Registry
	regPrefix string

	legs *query.Workers[*fanLeg] // the fan-out legs their callers hand off
}

// pendingWrite is one acknowledged insert captured during a migration's
// copy phase: the row is double-written — applied to the new backends at
// flip, in capture order, after the copied prefix. The row is a one-row view
// of the source's append-only vectors, so the flip never has to ask the
// (possibly since-crashed) source backend for it.
type pendingWrite struct {
	table  string
	row    storage.View
	src    int // source slot the insert landed on
	srcRid int // local row id on the source (merge-order key)
}

// New starts a router over n fresh backends of the given profile; scale is
// the wall-clock factor for simulated latencies (as in server.New). With
// Options.Group.Replicas > 0 every backend is a replica group built from
// Options.Group instead of a bare server. Load data with LoadFrom before
// executing queries. New panics on a non-nil Options.Group.Store.
func New(prof server.Profile, scale float64, opts Options) *Router {
	if opts.Group.Store != nil {
		panic("shard: Options.Group.Store set: one store cannot back every shard's log (use NewWithBackends)")
	}
	n := opts.Shards
	if n < 1 {
		n = 1
	}
	mk := func() Backend {
		if opts.Group.Replicas > 0 {
			return replica.NewGroup(prof, scale, opts.Group)
		}
		return server.New(prof, scale)
	}
	backends := make([]Backend, n)
	for i := range backends {
		backends[i] = mk()
	}
	r := NewWithBackends(backends, opts.Keys)
	r.mk = mk
	return r
}

// NewWithBackends wraps existing backends (tests, heterogeneous clusters).
func NewWithBackends(backends []Backend, keys map[string]string) *Router {
	if keys == nil {
		keys = map[string]string{}
	}
	r := &Router{
		backends: backends,
		keys:     keys,
		tables:   map[string]*tableInfo{},
	}
	r.ranges.Store(NewRanges(len(backends)))
	r.legs = query.NewWorkers(parkedLegs, func(l *fanLeg) {
		for ok := true; ok; ok = r.legs.Park(&l) {
			l.run(r)
		}
	})
	return r
}

// SetBackendFactory installs the constructor migrations use to build fresh
// backends (tests and NewWithBackends callers; New installs one itself).
func (r *Router) SetBackendFactory(mk func() Backend) { r.mk = mk }

// Ranges returns the current hash-range ownership snapshot.
func (r *Router) Ranges() *Ranges { return r.ranges.Load() }

// Shards returns the number of backends.
func (r *Router) Shards() int {
	r.mig.RLock()
	defer r.mig.RUnlock()
	return len(r.backends)
}

// Backends exposes the per-shard backends (tests, stats drill-down). The
// returned slice is a consistent snapshot; migrations install a fresh slice
// on flip rather than mutating this one.
func (r *Router) Backends() []Backend {
	r.mig.RLock()
	defer r.mig.RUnlock()
	return r.backends
}

// Groups returns the replica groups backing each shard, or nil when the
// router runs bare servers (Options.Group.Replicas == 0).
func (r *Router) Groups() []*replica.Group {
	r.mig.RLock()
	defer r.mig.RUnlock()
	out := make([]*replica.Group, 0, len(r.backends))
	for _, b := range r.backends {
		g, ok := b.(*replica.Group)
		if !ok {
			return nil
		}
		out = append(out, g)
	}
	return out
}

// LoadFrom partitions a fully loaded reference server across the backends —
// wal.Copy with the ownership rule: every table is recreated with the same
// schema, page fanout and indexes; sharded tables send each row to its key's
// owner (the kept rids are the global row order scatter-gather merges by)
// and replicated tables copy every row to every shard. The reference is read
// through its views, never materialized. Call once, after the reference load,
// before queries.
func (r *Router) LoadFrom(ref *server.Server) error {
	srcs := wal.LiveTables(ref.Catalog())
	infos := make([]*tableInfo, len(srcs))
	for i, t := range srcs {
		ti := &tableInfo{key: r.keys[t.Name], keyPos: -1, loaded: t.View.NumRows}
		if ti.key != "" {
			if ti.keyPos = t.Schema.ColIndex(ti.key); ti.keyPos < 0 {
				return fmt.Errorf("shard: table %s has no shard key column %q", t.Name, ti.key)
			}
		}
		infos[i] = ti
	}
	rg := r.ranges.Load()
	kept, err := wal.Copy(copySets(r.backends), srcs, func(src, rid int, v *storage.View) int {
		if ti := infos[src]; ti.keyPos >= 0 {
			return rg.ownerOfRow(v, ti.keyPos, rid)
		}
		return wal.All
	})
	if err != nil {
		return fmt.Errorf("shard: load: %w", err)
	}
	r.tmu.Lock()
	for i, t := range srcs {
		infos[i].global = make([][]int32, len(kept[i])) // per shard, the reference rids it holds
		for d, rids := range kept[i] {
			infos[i].global[d] = make([]int32, len(rids))
			for j, rid := range rids {
				infos[i].global[d][j] = int32(rid)
			}
		}
		r.tables[t.Name] = infos[i]
	}
	r.tmu.Unlock()
	return nil
}

// copySets lists each backend's copies: the destination sets wal.Copy fills.
func copySets(backends []Backend) [][]*server.Server {
	sets := make([][]*server.Server, len(backends))
	for i, b := range backends {
		sets[i] = b.Copies()
	}
	return sets
}

// catalog is the authoritative copy's table catalog: what a migration reads
// a source backend through.
func catalog(b Backend) *storage.Catalog { return b.Copies()[0].Catalog() }

func (r *Router) table(name string) *tableInfo {
	r.tmu.RLock()
	defer r.tmu.RUnlock()
	return r.tables[name]
}

// lookup resolves a statement for routing: its parse and its table's routing
// metadata. ti is nil for a malformed statement or an unknown table.
func (r *Router) lookup(sql string) (st *sqlmini.Stmt, ti *tableInfo) {
	st, err := r.prep.Prepare(sql)
	if err != nil {
		return nil, nil
	}
	return st, r.table(st.Table)
}

// Destinations route returns besides a shard index.
const (
	destBroadcast = -1 - iota // replicated-table write: every shard, so the copies stay identical
	destScatter               // no shard-key value bound: every owning shard, results merged
)

// route is the routing rule, stated once for Do and BatchGroup:
// where a statement (resolved by lookup) executes under one binding. keyed
// reports that the binding's shard-key value chose the shard.
func (r *Router) route(st *sqlmini.Stmt, ti *tableInfo, args []any) (dest int, keyed bool) {
	switch {
	case ti == nil:
		// Malformed statement or unknown table: ship it to a real backend so
		// the round trip and the error text match the single-server path.
		return 0, false
	case ti.key == "" && st.Insert:
		return destBroadcast, false
	case ti.key == "":
		// Replicated table: every shard holds the full data; read one.
		return 0, false
	}
	var v any
	var ok bool
	if st.Insert {
		v, ok = st.InsertValue(ti.keyPos, args)
	} else {
		v, ok = st.WhereEqValue(ti.key, args)
	}
	switch {
	case ok:
		return r.ranges.Load().OwnerOf(v), true
	case st.Insert:
		// Arity/parameter errors surface identically on any backend.
		return 0, false
	default:
		return destScatter, false
	}
}

// dispatch sends one call to shard i, re-scoped for the leg with the shard's
// span child ("shard.exec" / "shard.batch", labelled with the shard); the
// deadline passes through verbatim. The call is re-scoped in place and put
// back: a copy would have to live on the heap, because the backend is called
// through an interface.
func (r *Router) dispatch(c *query.Call, i int, rep *query.Reply) {
	what := "shard.exec"
	if c.Batch() {
		what = "shard.batch"
	}
	span := c.Span
	sp := span.Child(what)
	sp.SetDetail(obs.ShardLabel(i))
	c.Span = sp
	c.On(r.backends[i], rep)
	c.Span = span
	sp.End()
}

// parkedLegs is how many of a router's leg workers stay parked between
// fan-outs: a few concurrent callers' worth, as the door's idleWorkers.
const parkedLegs = 4

// fanLeg is one leg of a fan-out: its shard, its own copy of the call, its
// reply, and the claim that runs it once, on whichever goroutine takes it.
type fanLeg struct {
	fan   *fan
	shard int
	taken atomic.Bool
	call  query.Call
	rep   query.Reply
}

// fan is one fan-out: its legs and the join its caller waits on, in one
// object; a fan-out over two shards, the usual one, keeps its legs inside it.
type fan struct {
	join sync.WaitGroup // the legs taken and not finished yet
	legs []fanLeg
	two  [2]fanLeg
}

// fanout dispatches one call to several shards in parallel: leg k goes to
// shard targets[k], carrying subs[k] in place of the call's own bindings
// when subs is given (split's per-shard sub-batches). Every leg but the last
// is handed to a leg worker (r.legs); the caller runs the last, then every
// leg no worker has taken yet, and waits for the rest: a help-first join, so
// no leg waits for a worker to be scheduled while its caller idles.
// Span.Child is concurrency-safe, so each leg hangs its own child off the
// call's span.
func (r *Router) fanout(c *query.Call, targets []int, subs [][][]any) []fanLeg {
	f := new(fan)
	if n := len(targets); n <= len(f.two) {
		f.legs = f.two[:n]
	} else {
		f.legs = make([]fanLeg, n)
	}
	f.join.Add(len(targets))
	for k, s := range targets {
		l := &f.legs[k]
		l.fan, l.shard, l.call = f, s, *c
		if subs != nil {
			l.call.ArgSets = subs[k]
		}
		if k < len(targets)-1 {
			r.legs.Go(&l)
		}
	}
	for k := len(targets) - 1; k >= 0; k-- { // the last is the caller's own
		f.legs[k].run(r)
	}
	f.join.Wait()
	return f.legs
}

// run runs the leg unless another goroutine has taken it.
func (l *fanLeg) run(r *Router) {
	if l.taken.CompareAndSwap(false, true) {
		r.dispatch(&l.call, l.shard, &l.rep)
		l.fan.join.Done()
	}
}

// broadcast runs a replicated-table write on every shard so the copies stay
// identical. Shard 0's reply speaks for all, except that a binding any shard
// failed reports that shard's error. Acknowledged bindings are staged for
// double-writing (in binding order) while a migration's copy phase runs.
// The targets are the range map's owners, which are every backend: the map
// and the backends are swapped together under the migration write lock.
func (r *Router) broadcast(c *query.Call, table string, rep *query.Reply) {
	legs := r.fanout(c, r.ranges.Load().Owners(), nil)
	*rep = legs[0].rep
	for k := range legs[1:] {
		o := &legs[1+k].rep
		if rep.Err == nil && o.Err != nil {
			rep.Value, rep.Err = nil, o.Err
		}
		for j, e := range o.Errs {
			if e != nil && j < len(rep.Errs) && rep.Errs[j] == nil {
				rep.Values[j], rep.Errs[j] = nil, e
			}
		}
	}
	for j, n := 0, c.Units(); j < n; j++ {
		if rid, ok := insertedRid(rep, j); ok {
			r.stagePending(table, 0, rid, true)
		}
	}
}

// insertedRid reports the local row id binding j of an acknowledged insert
// landed on: Info.Matched for a single call, Info.InsertRids for a batch. A
// binding whose reply slot holds an error was not acknowledged and has none.
func insertedRid(rep *query.Reply, j int) (int, bool) {
	if rep.Errs == nil {
		if rep.Err != nil || len(rep.Info.Matched) != 1 {
			return 0, false
		}
		return rep.Info.Matched[0], true
	}
	if rids := rep.Info.InsertRids; j < len(rids) && rids[j] >= 0 && j < len(rep.Errs) && rep.Errs[j] == nil {
		return rids[j], true
	}
	return 0, false
}

// noteInsert is the acknowledged-insert rule, stated once: binding j of a
// call that shard s answered with rep is an insert into a table the router
// knows, and its reply slot holds no error. Its position is then recorded, so
// scatter merges keep the exact single-server insertion order, and it is
// staged for double-writing while a migration's copy phase runs.
func (r *Router) noteInsert(st *sqlmini.Stmt, ti *tableInfo, s int, rep *query.Reply, j int) {
	if ti == nil || !st.Insert {
		return
	}
	if rid, ok := insertedRid(rep, j); ok {
		ti.notePos(s, rid)
		r.stagePending(st.Table, s, rid, false)
	}
}

// Exec routes one statement as the set of its one binding (Do). Every
// dispatched shard leg hangs a "shard.exec" child (with its shard id) off the
// request's span, and the backend continues the tree down to RTT, I/O, CPU
// and WAL commit.
func (r *Router) Exec(req query.Request) query.Result {
	c, rep := query.Call{Request: req}, query.Reply{}
	r.Do(&c, &rep)
	return rep.Result()
}

// Do routes a call of either shape (query.Doer), with row results — a
// shard's own, or the scatter merge's — left columnar. It is the one routing
// body: a single call is the set of its one binding, and every binding is
// routed. A replicated-table write broadcasts; a call whose bindings all
// route to one shard goes there whole; otherwise a single call scatters and a
// batch is split. The whole call holds the migration read lock, so a routing
// flip never lands mid-statement.
func (r *Router) Do(c *query.Call, rep *query.Reply) {
	r.mig.RLock()
	defer r.mig.RUnlock()
	st, ti := r.lookup(c.SQL)
	sets := c.ArgSets
	if !c.Batch() {
		sets = [][]any{c.Args}
	}
	// The destinations are sized once; a call of one binding keeps its
	// destination on the stack.
	var one [1]int
	dests := one[:0]
	if len(sets) > 1 {
		dests = make([]int, 0, len(sets))
	}
	whole := len(sets) > 0 // so far every binding routes to shard dests[0]
	for _, args := range sets {
		d, _ := r.route(st, ti, args)
		if d == destBroadcast {
			// Decided by the statement alone: the whole call broadcasts.
			r.broadcast(c, st.Table, rep)
			return
		}
		dests = append(dests, d)
		whole = whole && d >= 0 && d == dests[0]
	}
	switch {
	case whole:
		r.dispatch(c, dests[0], rep)
		for j := range dests {
			r.noteInsert(st, ti, dests[0], rep, j)
		}
	case !c.Batch():
		rep.Value, rep.Err = r.scatter(c, st, ti)
	default:
		r.split(c, st, ti, dests, rep)
	}
}

// stagePending captures one acknowledged insert while a migration's copy
// phase runs: the row's one-row view joins the pending double-write buffer
// and is applied to the new backends at flip, after the copied prefix, in
// capture order. Only acknowledged inserts are staged — a failed insert
// never reaches the buffer, so the flip cannot manufacture writes. Callers
// hold the migration read lock, so migActive/migSource are stable.
func (r *Router) stagePending(table string, src, rid int, repl bool) {
	if !r.migActive || (!repl && src != r.migSource) {
		return
	}
	var v storage.View
	catalog(r.backends[src]).Table(table).ViewInto(&v)
	row := v.Slice(rid, rid+1)
	r.pendingMu.Lock()
	r.pending = append(r.pending, pendingWrite{table: table, row: row, src: src, srcRid: rid})
	r.pendingMu.Unlock()
	r.doubleWrites.Add(1)
}

// pruneTargets is the scatter planner's cheap fast path: a statement with a
// bound equality predicate on a secondary-indexed column consults each
// shard's index key statistics (the rid-count map every insert maintains)
// and skips shards holding zero matching keys. The peek models a statistics
// cache on the router — no round trip is charged, which is the point.
// Candidates are the range map's owners. It returns the shard ids to
// visit, in buf's storage while it has the room, or nil when no indexed
// predicate prunes. An empty result still keeps one representative shard so
// validation errors (which are schema-determined and identical everywhere)
// surface exactly as a full scatter would, and a zero-match execution stays
// observable.
func (r *Router) pruneTargets(st *sqlmini.Stmt, args []any, owners, buf []int) []int {
	var targets []int
	for _, c := range st.Where {
		v, ok := c.Value(args)
		if !ok {
			continue // fails parameter validation identically everywhere
		}
		cands := targets
		if cands == nil {
			cands = owners
		}
		if len(cands) == 0 {
			break // an earlier predicate already pruned every shard
		}
		// The physical design is the same on every shard: the first
		// candidate's answer also says whether the column is indexed at all.
		n, indexed := r.backends[cands[0]].IndexKeyCount(st.Table, c.Col, v)
		if !indexed {
			continue // no statistics to prune by
		}
		if targets == nil {
			targets = buf[:0]
		}
		kept := targets[:0]
		if n > 0 {
			kept = append(kept, cands[0])
		}
		for _, s := range cands[1:] {
			if n, _ := r.backends[s].IndexKeyCount(st.Table, c.Col, v); n > 0 {
				kept = append(kept, s)
			}
		}
		targets = kept
	}
	if targets != nil && len(targets) == 0 {
		targets = append(targets, owners[0])
	}
	return targets
}

// ScatterPruned reports how many per-shard executions the scatter planner's
// index-statistics fast path has skipped.
func (r *Router) ScatterPruned() int64 { return r.pruned.Load() }

// scatter runs one statement on every shard holding candidate rows — in
// parallel — and merges the partial results into exactly what a single
// server holding all the data would return. The candidate set is the range
// map's owners, read from one snapshot so the target list and the
// pruning accounting agree on a single generation even while a migration
// runs. Shards the index statistics prove empty for the predicate are
// skipped (pruneTargets); an empty shard's contribution to every merge is
// the identity, so pruning is invisible in the results.
func (r *Router) scatter(c *query.Call, st *sqlmini.Stmt, ti *tableInfo) (any, error) {
	owners := r.ranges.Load().Owners()
	var buf [8]int // the pruned target list stays on the stack
	targets := r.pruneTargets(st, c.Args, owners, buf[:])
	if targets == nil {
		targets = owners
	} else if skipped := len(owners) - len(targets); skipped > 0 {
		r.pruned.Add(int64(skipped))
	}
	legs := r.fanout(c, targets, nil)
	// Validation errors are schema-determined and the schema is identical on
	// every shard, so all shards fail alike; data-dependent errors (bad
	// aggregate column type) fire on whichever shard holds a matching row.
	// Either way any non-nil error is the single-server error.
	for k := range legs {
		if err := legs[k].rep.Err; err != nil {
			return nil, err
		}
	}
	if st.Agg != sqlmini.AggNone {
		return mergeAgg(st.Agg, legs)
	}
	return mergeRows(ti, targets, legs)
}

// mergeAgg combines per-shard aggregates. COUNT and SUM add (both are 0 on
// an empty shard, the single-server empty result); MAX and MIN compare the
// non-nil partials and return nil — the single-server no-match result — when
// every shard came up empty.
func mergeAgg(kind sqlmini.AggKind, legs []fanLeg) (any, error) {
	switch kind {
	case sqlmini.AggCount, sqlmini.AggSum:
		var total int64
		for k := range legs {
			v := legs[k].rep.Value
			n, ok := v.(int64)
			if !ok {
				return nil, fmt.Errorf("shard: aggregate merge: unexpected partial %T", v)
			}
			total += n
		}
		return total, nil
	case sqlmini.AggMax, sqlmini.AggMin:
		var best int64
		have := false
		for k := range legs {
			v := legs[k].rep.Value
			if v == nil {
				continue
			}
			n, ok := v.(int64)
			if !ok {
				return nil, fmt.Errorf("shard: aggregate merge: unexpected partial %T", v)
			}
			if !have || (kind == sqlmini.AggMax && n > best) || (kind == sqlmini.AggMin && n < best) {
				best = n
				have = true
			}
		}
		if !have {
			return nil, nil
		}
		return best, nil
	}
	return nil, fmt.Errorf("shard: aggregate merge: unsupported kind %d", kind)
}

// mergeRows interleaves per-shard row results back into global row order.
// Each shard returns its matches in ascending local rid order; the table's
// global map translates (shard, local rid) into the original load order, so
// the merged result is byte-identical to the single-server result. targets
// names the shard each leg went to (a pruned scatter visits a subset), in
// ascending order. The merge is a typed gather: the legs' columnar results are
// read in place through their selections, (leg, row) pairs are sorted by
// global position, and every cell is copied once into the merged columns, each
// in the form the first leg with rows has it. A backend that only has the
// public Exec answers in interp.Rows, which is lifted first: there is one
// merge.
func mergeRows(ti *tableInfo, targets []int, legs []fanLeg) (any, error) {
	type ref struct{ pos, leg, row int }
	var buf [32]ref // the usual merge is a few rows: sort it on the stack
	order := buf[:0]
	part := func(leg int) *interp.RowSet { return legs[leg].rep.Value.(*interp.RowSet) }
	var shape *interp.RowSet // the first leg with rows: the result has its columns
	for k := range legs {
		rep := &legs[k].rep
		if rows, ok := rep.Value.(interp.Rows); ok {
			if rep.Value, ok = interp.LiftRows(rows); !ok {
				return nil, fmt.Errorf("shard: row merge: shard %d returned rows that are not typed columns", targets[k])
			}
		}
		rs, ok := rep.Value.(*interp.RowSet)
		if !ok {
			return nil, fmt.Errorf("shard: row merge: unexpected partial %T", rep.Value)
		}
		if rs.N == 0 {
			continue
		}
		if shape == nil {
			shape = rs
		}
		// Legs run one statement on one schema, so they agree on the columns;
		// a lifted leg may list them in another order, so columns are paired
		// through the headers' name order.
		if rs.Header != shape.Header && !slices.EqualFunc(rs.Header.Wire, shape.Header.Wire, func(a, b int) bool {
			return rs.Header.Names[a] == shape.Header.Names[b]
		}) {
			return nil, fmt.Errorf("shard: row merge: shard %d returned columns %v, want %v",
				targets[k], rs.Header.Names, shape.Header.Names)
		}
		// The gather reads each column in the form shape has it.
		for w, c := range rs.Header.Wire {
			if (rs.Cols[c].Ints != nil) != (shape.Cols[shape.Header.Wire[w]].Ints != nil) {
				return nil, fmt.Errorf("shard: row merge: shard %d returned column %q of another type",
					targets[k], rs.Header.Names[c])
			}
		}
		for j := 0; j < rs.N; j++ {
			// The executor reports one matched rid per returned row; the
			// defensive branch keeps a malformed trace deterministic.
			rid := j
			if matched := rep.Info.Matched; j < len(matched) {
				rid = matched[j]
			}
			order = append(order, ref{pos: rid, leg: k, row: rs.At(j)}) // pos is set below
		}
	}
	if shape == nil {
		return part(0), nil
	}
	ti.mu.RLock()
	for i, o := range order {
		order[i].pos = ti.globalPos(targets[o.leg], o.pos)
	}
	ti.mu.RUnlock()
	slices.SortFunc(order, func(a, b ref) int {
		if a.pos != b.pos {
			return cmp.Compare(a.pos, b.pos)
		}
		return cmp.Compare(a.leg, b.leg)
	})

	n := len(order)
	cols := make([]interp.RowCol, len(shape.Cols))
	for w, k := range shape.Header.Wire {
		col := func(leg int) *interp.RowCol {
			rs := part(leg)
			return &rs.Cols[rs.Header.Wire[w]]
		}
		if shape.Cols[k].Ints != nil {
			cols[k].Ints = make([]int64, n)
			for i, o := range order {
				cols[k].Ints[i] = col(o.leg).Ints[o.row]
			}
		} else {
			cols[k].Strs = make([]string, n)
			for i, o := range order {
				cols[k].Strs[i] = col(o.leg).Strs[o.row]
			}
		}
	}
	return &interp.RowSet{Header: shape.Header, Cols: cols, N: n}, nil
}

// ExecBatch routes a set-oriented submission (Do). A batch whose bindings
// all route to one shard goes there whole, paying one round trip and one
// planning charge; any other batch is split.
func (r *Router) ExecBatch(req query.BatchRequest) query.BatchResult {
	c, rep := query.BatchCall(req), query.Reply{}
	r.Do(&c, &rep)
	return rep.BatchResult()
}

// split runs a batch whose bindings route apart (dests, in binding order): it
// carves per-shard sub-batches that execute in parallel, plus one
// scatter-gather call per binding with no shard-key value, and demultiplexes
// everything back into binding order. Each sub-batch pays its shard one round
// trip and one planning charge, so an N-shard cluster executes a large batch
// roughly N-way parallel. Sub-batches hang "shard.batch" children off the
// request's span, scatter fallbacks hang "shard.exec" legs; the deadline fans
// out with them.
func (r *Router) split(c *query.Call, st *sqlmini.Stmt, ti *tableInfo, dests []int, rep *query.Reply) {
	n := len(dests)
	counts := make([]int, len(r.backends)) // what each shard receives
	for _, d := range dests {
		if d >= 0 {
			counts[d]++
		}
	}
	// Carve one backing array into the per-shard sub-batches, each in
	// binding order.
	leg := make([]int, len(counts)) // shard -> its leg of the fan-out
	targets := make([]int, 0, len(counts))
	subs := make([][][]any, 0, len(counts))
	backing := make([][]any, n)
	for s, cnt := range counts {
		if cnt > 0 {
			leg[s] = len(targets)
			targets = append(targets, s)
			subs = append(subs, backing[:0:cnt])
			backing = backing[cnt:]
		}
	}
	vals, errs := make([]any, n), make([]error, n)
	rep.Values, rep.Errs = vals, errs
	var wg sync.WaitGroup
	for i, d := range dests {
		if d >= 0 {
			subs[leg[d]] = append(subs[leg[d]], c.ArgSets[i])
			continue
		}
		wg.Add(1)
		go func(i int, one query.Call) {
			defer wg.Done()
			one.Args, one.ArgSets = one.ArgSets[i], nil
			vals[i], errs[i] = r.scatter(&one, st, ti)
		}(i, *c)
	}
	out := r.fanout(c, targets, subs)
	wg.Wait()

	// Demultiplex in binding order. A single server applies an insert
	// batch's bindings in that order, so that is also the order their
	// positions are noted in, now that the parallel sub-batches have drained.
	clear(counts) // from here on: each shard's next sub-batch slot
	for i, d := range dests {
		if d < 0 {
			continue
		}
		o, j := &out[leg[d]].rep, counts[d]
		counts[d]++
		if j < len(o.Values) {
			vals[i] = o.Values[j]
		}
		if j < len(o.Errs) {
			errs[i] = o.Errs[j]
		}
		r.noteInsert(st, ti, d, o, j)
	}
}

// BatchGroup is the coalescing refinement for batched submission
// (batch.Options.GroupFn): it returns the shard a request would route to,
// or len(backends) for statements that broadcast, scatter or fail, so the
// coalescer forms single-shard batches that Do sends whole. Grouping is an
// optimization only — Do routes every binding, so a mixed batch still
// executes correctly.
func (r *Router) BatchGroup(name, sql string, args []any) int {
	r.mig.RLock()
	defer r.mig.RUnlock()
	st, ti := r.lookup(sql)
	if dest, keyed := r.route(st, ti, args); keyed {
		return dest
	}
	return len(r.backends)
}

// RegisterMetrics hooks the whole cluster's counters into reg as pull
// sources: one "shard<i>." subtree per backend (server or replica-group
// stats plus WAL state), a router-level source for the scatter planner, and
// a "shard.migrations" source for the re-sharding machinery (generation,
// splits, rows copied, double-writes); replica-group backends also land
// their fsync histograms in reg. The hookup is remembered: a migration
// re-registers swapped and appended backends under their shard index on
// flip.
func (r *Router) RegisterMetrics(reg *obs.Registry, prefix string) {
	r.mig.Lock()
	defer r.mig.Unlock()
	r.reg, r.regPrefix = reg, prefix
	r.registerMetricsLocked()
}

// registerMetricsLocked (re)registers every backend and the router sources
// under the remembered registry; callers hold the mig write lock.
func (r *Router) registerMetricsLocked() {
	reg, prefix := r.reg, r.regPrefix
	if reg == nil {
		return
	}
	for i, b := range r.backends {
		b.RegisterMetrics(reg, fmt.Sprintf("%sshard%d.", prefix, i))
	}
	reg.RegisterSource(prefix+"router", func() map[string]float64 {
		return map[string]float64{"scatter.pruned": float64(r.pruned.Load())}
	})
	reg.RegisterSource(prefix+"shard.migrations", func() map[string]float64 {
		ms := r.MigrationStats()
		return map[string]float64{
			"generation":    float64(ms.Generation),
			"splits":        float64(ms.Splits),
			"rows.copied":   float64(ms.RowsCopied),
			"double.writes": float64(ms.DoubleWrites),
		}
	})
}

// Warm preloads every shard's registered extents.
func (r *Router) Warm() {
	r.mig.RLock()
	defer r.mig.RUnlock()
	for _, b := range r.backends {
		b.Warm()
	}
}

// ColdStart empties every shard's buffer pool.
func (r *Router) ColdStart() {
	r.mig.RLock()
	defer r.mig.RUnlock()
	for _, b := range r.backends {
		b.ColdStart()
	}
}

// Close stops the leg workers and every backend; no call may be in flight.
func (r *Router) Close() {
	r.legs.Close()
	r.mig.RLock()
	defer r.mig.RUnlock()
	for _, b := range r.backends {
		b.Close()
	}
}

// Stats returns cluster-aggregate counters over the shards
// (server.Stats.Add).
func (r *Router) Stats() server.Stats {
	r.mig.RLock()
	defer r.mig.RUnlock()
	var agg server.Stats
	for _, b := range r.backends {
		agg.Add(b.Stats())
	}
	return agg
}
