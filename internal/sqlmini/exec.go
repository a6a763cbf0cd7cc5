package sqlmini

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/buffer"
	"repro/internal/interp"
	"repro/internal/storage"
)

// ExecInfo reports the work a statement performed, for CPU-cost accounting
// and test assertions. For ExecuteBatch it aggregates over the whole batch
// (RowsExamined sums, PagesTouched counts distinct page accesses).
type ExecInfo struct {
	PagesTouched int
	RowsExamined int
	RowsReturned int
	UsedIndex    bool
	FullScan     bool
	// Matched lists the row ids that survived the residual filter, in result
	// order (ascending rid); for INSERT statements it holds the inserted
	// row's id. A shard router uses it to restore the global row order in
	// scatter-gather merges and to track routed inserts. The slice is owned
	// by the caller — it never aliases execution-internal or pooled scratch
	// storage, so holding or mutating it cannot corrupt later executions
	// (pinned by TestExecInfoMatchedIsOwned). For a row select it is the
	// result's selection vector (interp.RowSet.Sel), not a second copy: what
	// the rows are and where they came from is one slice. Unset by
	// ExecuteBatch.
	Matched []int
	// InsertRids lists, for an INSERT batch only, the inserted row id per
	// binding in binding order (-1 for bindings that failed). A shard router
	// uses it to record where every batched insert landed, so scatter-gather
	// merges keep the exact single-server insertion order. Freshly allocated
	// per batch, owned by the caller. Unset by Execute and for non-insert
	// batches.
	InsertRids []int
}

// scratch holds the pooled per-execution buffers: the table view, bound
// filters, probe keys, the probed candidate rids and bucket pages, the data
// page list, the page-set bitmap and the batch's matched-rid buffer. All of
// it is reset on reuse; nothing in it may escape through results: a select's
// selection vector (which is also Execute's Matched) is a fresh copy of
// matched, and its column list is fresh too, holding the table's vectors.
type scratch struct {
	view    storage.View
	filters []condFilter
	matched []int
	offs    []int
	pages   []int
	bits    []uint64
	keys    []any
	probed  storage.Probed
	row     []any
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

func putScratch(sc *scratch) {
	// Drop the references into table storage (column vectors, bound
	// filters) so a pooled scratch does not pin a closed server's data.
	clear(sc.view.Cols)
	sc.view.Cols = sc.view.Cols[:0]
	clear(sc.keys)
	sc.keys = sc.keys[:0]
	clear(sc.row)
	sc.row = sc.row[:0]
	// Only the filters the last batch bound (the current length) can hold
	// references; entries past the length were released before the slice
	// was truncated, so point queries pay nothing for a wide batch's past.
	for i := range sc.filters {
		sc.filters[i].release()
	}
	sc.filters = sc.filters[:0]
	scratchPool.Put(sc)
}

// filtersFor returns n reusable filters.
func (sc *scratch) filtersFor(n int) []condFilter {
	if cap(sc.filters) < n {
		sc.filters = make([]condFilter, n)
	}
	sc.filters = sc.filters[:n]
	return sc.filters
}

// Execute runs a parsed statement against the catalog under one binding: the
// kernel (scratch.run) over a set of one, its result and error slots held on
// the stack. Beyond what the kernel reports it returns the owned Matched trace,
// which only a one-binding call has readers for: a row select's is its result's
// selection vector, anything else's a copy.
func Execute(st *Stmt, cat *storage.Catalog, pool *buffer.Pool, args []any) (any, ExecInfo, error) {
	result, errs := [1]any{}, [1]error{}
	sc := getScratch()
	defer putScratch(sc)
	info := sc.run(st, cat, pool, [][]any{args}, result[:], errs[:])
	if rs, ok := result[0].(*interp.RowSet); ok && rs.Sel != nil {
		info.Matched = rs.Sel
	} else if errs[0] == nil {
		info.Matched = slices.Clone(sc.matched)
	}
	return result[0], info, errs[0]
}

// ExecuteBatch evaluates one parameterized statement against a set of
// bindings and returns one result and one error per binding, in order, and
// the ExecInfo of the whole set. It is the kernel (scratch.run) with slots
// allocated for the caller; an insert set also gets its InsertRids.
func ExecuteBatch(st *Stmt, cat *storage.Catalog, pool *buffer.Pool, argSets [][]any) ([]any, []error, ExecInfo) {
	results := make([]any, len(argSets))
	errs := make([]error, len(argSets))
	sc := getScratch()
	defer putScratch(sc)
	info := sc.run(st, cat, pool, argSets, results, errs)
	if st.Insert {
		info.InsertRids = slices.Clone(sc.matched)
	}
	return results, errs, info
}

// run is the one executor: it evaluates st over a set of bindings into the
// result and error slots its caller supplies (one each per binding, zeroed),
// driving page accesses through the buffer pool, which charges simulated disk
// time on misses. Aggregates answer int64 and inserts the inserted row count,
// in the interpreter's value vocabulary. A column select answers a
// *interp.RowSet: the columnar result that travels unopened through the
// server, the replica group, the shard merge and the wire encoder, boxed into
// interp.Rows in one place only (query.Reply's Result/BatchResult, which the
// public Exec/ExecBatch of every layer return through).
//
// What the bindings share is everything but their values: the table and plan
// lookup, the statement-wide validation, one driving index resolved once and
// probed with every live binding's key under one table lock
// (storage.Table.Probe), each distinct bucket and data page touched once in
// one walk per extent — or one scan of the table that every binding
// partitions — and, for a row select, one projected block that each binding
// views. A probe is exact, so a binding's residual filter is every predicate
// but the driving one. A binding that fails drops out of the shared phases
// with its own error and charges no rows (Server.Do charges no CPU for a call
// none of whose bindings succeeded). The returned ExecInfo covers the whole
// set; sc.matched is left holding the surviving row ids, binding after binding
// (for an insert, each binding's new row id or -1), for the entry points to
// copy out of the pooled scratch.
func (sc *scratch) run(st *Stmt, cat *storage.Catalog, pool *buffer.Pool, argSets [][]any, results []any, errs []error) (info ExecInfo) {
	sc.matched = sc.matched[:0]
	t := cat.Table(st.Table)
	if t == nil {
		for i := range errs {
			errs[i] = fmt.Errorf("sqlmini: no table %q", st.Table)
		}
		return info
	}

	// Validate every binding first: arity, then the statement-wide diagnosis.
	var plan *stmtPlan
	var stmtErr error
	if !st.Insert {
		plan = st.planFor(t)
		stmtErr = validateWhere(st, plan)
	} else if len(st.Values) != len(t.Schema.Cols) {
		stmtErr = fmt.Errorf("sqlmini: insert arity %d, want %d", len(st.Values), len(t.Schema.Cols))
	}
	live := 0
	for i, args := range argSets {
		switch {
		case len(args) != st.NumParams:
			errs[i] = fmt.Errorf("sqlmini: %d parameters bound, want %d", len(args), st.NumParams)
		case stmtErr != nil:
			errs[i] = stmtErr
		default:
			live++
		}
	}
	if live == 0 {
		// No page is touched and no scan runs.
		return info
	}

	if st.Insert {
		// Inserts share no IO (each appends its own row): the set amortizes
		// the scratch here, the round trip and planning charge at the server.
		for i, args := range argSets {
			sc.matched = append(sc.matched, -1)
			if errs[i] != nil {
				continue
			}
			sc.row = sc.row[:0]
			for k, ord := range st.Values {
				if ord >= 0 {
					sc.row = append(sc.row, args[ord])
				} else {
					sc.row = append(sc.row, st.Lits[k])
				}
			}
			rid, err := t.Insert(sc.row)
			if err != nil {
				errs[i] = err
				continue
			}
			pool.Put(buffer.PageID{Extent: t.Extent, Page: t.PageOf(rid)})
			info.PagesTouched++
			info.RowsReturned++
			sc.matched[i], results[i] = rid, int64(1)
		}
		return info
	}

	// The access path is uniform across the set — every binding shares the
	// statement's predicate columns, so either the first indexed equality
	// predicate drives all lookups or every binding scans.
	driver, ix := pickDriver(t, st.Where)
	scanN := 0
	if ix != nil {
		// One candidate rid list per live binding, in binding order.
		c := &st.Where[driver]
		sc.keys = sc.keys[:0]
		for i, args := range argSets {
			if errs[i] == nil {
				key, _ := c.Value(args)
				sc.keys = append(sc.keys, key)
			}
		}
		info.PagesTouched = sc.fetch(t, ix, pool)
		info.UsedIndex = true
	} else {
		// One sequential batched read of the snapshot for the whole set.
		t.ViewInto(&sc.view)
		rpp := t.RowsPerPage()
		pages := (sc.view.NumRows + rpp - 1) / rpp
		pool.GetBatch(t.Extent, 0, pages)
		info.PagesTouched = pages
		info.FullScan = true
		scanN = sc.view.NumRows
	}

	// Every binding's matches go into one buffer (offs[i] is where binding
	// i's start), so a row select projects the whole set at once.
	filters := sc.filtersFor(len(argSets))
	sc.offs = sc.offs[:0]
	probed := 0 // live bindings seen: the next key of sc.probed
	for i := range argSets {
		sc.offs = append(sc.offs, len(sc.matched))
		if errs[i] != nil {
			continue
		}
		examined := scanN
		if ix == nil {
			filters[i].bind(st, plan, &sc.view, argSets[i], -1)
			sc.matched = filters[i].appendScanMatches(sc.matched, scanN)
		} else {
			cand := sc.probed.Key(probed)
			probed++
			examined = len(cand)
			if len(st.Where) == 1 {
				sc.matched = append(sc.matched, cand...)
			} else {
				filters[i].bind(st, plan, &sc.view, argSets[i], driver)
				sc.matched = filters[i].appendMatches(sc.matched, cand)
			}
		}
		mine := sc.matched[sc.offs[i]:]
		returned := len(mine)
		if st.Agg != AggNone {
			returned = 1
			results[i], errs[i] = aggregate(st, plan, &sc.view, mine)
		} else if returned > 0 {
			errs[i] = plan.selErr
		}
		if errs[i] != nil {
			// Charges no rows and has nothing to project.
			sc.matched = sc.matched[:sc.offs[i]]
			continue
		}
		info.RowsExamined += examined
		info.RowsReturned += returned
	}
	if st.Agg != AggNone {
		return info
	}
	if len(sc.matched) == 0 {
		for i := range results {
			if errs[i] == nil {
				results[i] = plan.none
			}
		}
		return info
	}
	// One block for the set: the snapshot's column vectors, aliased (storage
	// is append-only, see interp.RowSet), and an owned copy of the matches as
	// its selection; each binding's result is its window of the selection.
	n := sc.view.NumRows
	cols := make([]interp.RowCol, len(plan.cols))
	for k, ci := range plan.cols {
		if c := &sc.view.Cols[ci]; c.Kind == storage.TInt {
			cols[k].Ints = c.Ints[:n:n]
		} else {
			cols[k].Strs = c.Strs[:n:n]
		}
	}
	sel := slices.Clone(sc.matched)
	sc.offs = append(sc.offs, len(sc.matched))
	views := make([]interp.RowSet, len(argSets))
	for i := range views {
		if errs[i] == nil {
			lo, hi := sc.offs[i], sc.offs[i+1]
			views[i] = interp.RowSet{Header: plan.hdr, Cols: cols, Sel: sel[lo:hi:hi], N: hi - lo}
			results[i] = &views[i]
		}
	}
	return info
}

// fetch is the index access path: it probes ix with sc.keys under one table
// lock, touches the distinct bucket pages, then the distinct data pages of the
// candidates, ascending, in one Pool.Get each (the shared, RID-ordered fetch
// the paper cites, §I), snapshots the table into sc.view and returns the pages
// touched. The candidate rids (sc.probed, a run per key) are copies the
// scratch owns. Insert publishes column values before index rids under one
// table lock, so the snapshot, taken after the probe, holds every candidate.
func (sc *scratch) fetch(t *storage.Table, ix *storage.Index, pool *buffer.Pool) int {
	t.Probe(ix, sc.keys, &sc.probed)
	rpp := t.RowsPerPage()
	sc.pages = sc.pages[:0]
	for _, rid := range sc.probed.Rids {
		sc.pages = append(sc.pages, rid/rpp)
	}
	buckets, data := sc.pageSet(sc.probed.Buckets), sc.pageSet(sc.pages)
	pool.Get(ix.Extent, buckets)
	pool.Get(t.Extent, data)
	t.ViewInto(&sc.view)
	return len(buckets) + len(data)
}

// pageSet is slices.Compact of ids sorted, in place. A set of at least
// bitmapFloor ids whose range is at most bitmapWidth words an id takes the
// bitmap (bitmap), and any other is sorted: below the floor the sort is as
// fast or faster whatever the range, and past the width it is up to 32 ids
// (BenchmarkPageSet). The bucket pages of a batch call or a transformed
// loop's call take the bitmap, and their data pages mostly the sort (PERF.md
// counts them per workload).
func (sc *scratch) pageSet(ids []int) []int {
	if len(ids) >= bitmapFloor {
		lo, hi := slices.Min(ids), slices.Max(ids)
		if words := (hi-lo)>>6 + 1; words <= bitmapWidth*len(ids) {
			return sc.bitmap(ids, lo, words)
		}
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// bitmapFloor is the fewest ids pageSet orders through the bitmap, and
// bitmapWidth the most bitmap words an id it lets the set's range take.
const (
	bitmapFloor = 12
	bitmapWidth = 2
)

// bitmap is pageSet without the sort: each id sets its bit in a bitmap of
// words words from lo, whose words are read back in ascending order and
// cleared (all zero between calls).
func (sc *scratch) bitmap(ids []int, lo, words int) []int {
	if len(sc.bits) < words {
		sc.bits = make([]uint64, words)
	}
	for _, id := range ids {
		sc.bits[(id-lo)>>6] |= 1 << ((id - lo) & 63)
	}
	out := ids[:0]
	for w, word := range sc.bits[:words] {
		for ; word != 0; word &= word - 1 {
			out = append(out, lo+w<<6+bits.TrailingZeros64(word))
			sc.bits[w] = 0
		}
	}
	return out
}

// pickDriver returns the position of the first predicate whose column is
// indexed and that index — the driving access path — or -1 and nil for a full
// scan.
func pickDriver(t *storage.Table, conds []Cond) (int, *storage.Index) {
	for i, c := range conds {
		if ix := t.Index(c.Col); ix != nil {
			return i, ix
		}
	}
	return -1, nil
}

func aggregate(st *Stmt, plan *stmtPlan, view *storage.View, rids []int) (any, error) {
	if st.Agg == AggCount {
		return interp.BoxInt(int64(len(rids))), nil
	}
	ci := plan.aggCI
	if ci < 0 {
		return nil, fmt.Errorf("sqlmini: %s: no column %q", plan.table.Name, st.AggCol)
	}
	// Over a string column the aggregate fails once a row matches; with none
	// it answers as over an empty int column.
	col := &view.Cols[ci]
	if col.Kind != storage.TInt && len(rids) > 0 {
		return nil, fmt.Errorf("sqlmini: aggregate over non-int column %q", st.AggCol)
	}
	var sum, best int64
	for i, rid := range rids {
		v := col.Ints[rid]
		sum += v
		if i == 0 || (st.Agg == AggMax && v > best) || (st.Agg == AggMin && v < best) {
			best = v
		}
	}
	switch st.Agg {
	case AggSum:
		return interp.BoxInt(sum), nil
	case AggMax, AggMin:
		if len(rids) == 0 {
			return nil, nil
		}
		return interp.BoxInt(best), nil
	}
	return nil, fmt.Errorf("sqlmini: unsupported aggregate")
}
