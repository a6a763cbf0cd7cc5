package sqlmini

import (
	"fmt"
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
	// (pinned by TestExecInfoMatchedIsOwned). Unset by ExecuteBatch.
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
// filters, probe keys, candidate rid headers, page lists and the batch's
// matched-rid buffer. Everything in it is reset on reuse; nothing in it may
// escape through results (Matched is always freshly allocated).
type scratch struct {
	view    storage.View
	filt    condFilter
	filters []condFilter
	matched []int
	offs    []int
	pages   []int
	pages2  []int
	keys    []any
	rids    [][]int
	row     []any
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

func putScratch(sc *scratch) {
	// Drop the references into table storage (column vectors, index rid
	// lists, bound filters) so a pooled scratch does not pin a closed
	// server's data.
	clear(sc.view.Cols)
	sc.view.Cols = sc.view.Cols[:0]
	clear(sc.keys)
	sc.keys = sc.keys[:0]
	clear(sc.rids)
	sc.rids = sc.rids[:0]
	clear(sc.row)
	sc.row = sc.row[:0]
	sc.filt.release()
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

// Execute runs a parsed statement against the catalog, driving page accesses
// through the buffer pool (which charges simulated disk time on misses).
// Aggregates return int64 and inserts the inserted row count, in the
// interpreter's value vocabulary. A column select returns a *interp.RowSet:
// the columnar result that travels unopened through the server, the replica
// group, the shard merge and the wire encoder. It is boxed into interp.Rows in
// one place only, query.Reply's Result/BatchResult, which the public
// Exec/ExecBatch of every layer return through.
func Execute(st *Stmt, cat *storage.Catalog, pool *buffer.Pool, args []any) (any, ExecInfo, error) {
	var info ExecInfo
	t := cat.Table(st.Table)
	if t == nil {
		return nil, info, fmt.Errorf("sqlmini: no table %q", st.Table)
	}
	if len(args) != st.NumParams {
		return nil, info, fmt.Errorf("sqlmini: %d parameters bound, want %d", len(args), st.NumParams)
	}

	if st.Insert {
		return executeInsert(st, t, pool, args, &info)
	}

	plan := st.planFor(t)
	if err := validateWhere(st, plan); err != nil {
		return nil, info, err
	}
	sc := getScratch()
	defer putScratch(sc)

	// Access path: the first indexed equality predicate drives; otherwise a
	// full scan.
	var matched []int
	if di, ix := pickDriver(t, st.Where); ix != nil {
		// The batch's probe and fetch, with a set of one.
		key, _ := st.Where[di].Value(args)
		sc.keys = append(sc.keys[:0], key)
		info.PagesTouched = sc.fetch(t, ix, pool)
		rids := sc.rids[0]
		sc.filt.bind(st, plan, &sc.view, args)
		info.UsedIndex = true
		info.RowsExamined += len(rids)
		matched = sc.filt.appendMatches(make([]int, 0, len(rids)), rids)
	} else {
		// Full scan: one sequential batched read over the snapshot.
		t.ViewInto(&sc.view)
		sc.filt.bind(st, plan, &sc.view, args)
		rpp := t.RowsPerPage()
		n := (sc.view.NumRows + rpp - 1) / rpp
		pool.GetBatch(t.Extent, 0, n)
		info.PagesTouched += n
		info.FullScan = true
		info.RowsExamined += sc.view.NumRows
		matched = sc.filt.appendScanMatches(nil, sc.view.NumRows)
	}
	info.Matched = matched

	if st.Agg != AggNone {
		info.RowsReturned = 1
		v, err := aggregate(st, plan, &sc.view, matched)
		return v, info, err
	}
	if len(matched) == 0 {
		return plan.none, info, nil
	}
	if plan.selErr != nil {
		return nil, info, plan.selErr
	}
	info.RowsReturned = len(matched)
	return &interp.RowSet{Header: plan.hdr, Cols: emit(plan, &sc.view, matched), N: len(matched)}, info, nil
}

// ExecuteBatch evaluates one parameterized statement against a set of
// bindings set-orientedly. An indexed statement resolves its driving index
// once, probes it with every live binding's key under one table lock
// (storage.Table.Probe) and touches each distinct bucket and data page once
// for the batch; a full-scan statement scans the table once and partitions
// the rows by binding. A row select projects all matches into one block that
// each binding views. Results and errors come back per binding, in order, and
// are identical to what len(argSets) individual Execute calls would return;
// the returned ExecInfo aggregates the (shared) work of the whole batch.
func ExecuteBatch(st *Stmt, cat *storage.Catalog, pool *buffer.Pool, argSets [][]any) ([]any, []error, ExecInfo) {
	n := len(argSets)
	results := make([]any, n)
	errs := make([]error, n)
	var agg ExecInfo

	t := cat.Table(st.Table)
	if t == nil {
		for i := range errs {
			errs[i] = fmt.Errorf("sqlmini: no table %q", st.Table)
		}
		return results, errs, agg
	}

	if st.Insert {
		// Inserts do not share IO (each appends its own row); the batch still
		// amortizes the round trip and planning charge at the server layer.
		agg.InsertRids = make([]int, n)
		for i, args := range argSets {
			v, info, err := Execute(st, cat, pool, args)
			results[i], errs[i] = v, err
			agg.add(info)
			agg.InsertRids[i] = -1
			if err == nil && len(info.Matched) == 1 {
				agg.InsertRids[i] = info.Matched[0]
			}
		}
		return results, errs, agg
	}

	plan := st.planFor(t)
	sc := getScratch()
	defer putScratch(sc)

	// Validate every binding first; bindings with errors drop out of the
	// shared phases but keep their per-binding error text (arity first, then
	// the statement-wide unknown-column diagnosis, matching the per-query
	// order).
	whereErr := validateWhere(st, plan)
	live := 0
	for i, args := range argSets {
		if len(args) != st.NumParams {
			errs[i] = fmt.Errorf("sqlmini: %d parameters bound, want %d", len(args), st.NumParams)
			continue
		}
		if whereErr != nil {
			errs[i] = whereErr
			continue
		}
		live++
	}
	if live == 0 {
		// Every binding failed validation: like N per-query executions, no
		// page is touched and no scan runs.
		return results, errs, agg
	}
	filters := sc.filtersFor(n)

	// The access path is uniform across the batch — every binding shares the
	// statement's predicate columns, so either one indexed column drives all
	// lookups or every binding full-scans.
	driver, ix := pickDriver(t, st.Where)
	scanN := 0
	if ix != nil {
		// Set-oriented index path: one candidate rid list per live binding,
		// in binding order.
		c := &st.Where[driver]
		sc.keys = sc.keys[:0]
		for i, args := range argSets {
			if errs[i] == nil {
				key, _ := c.Value(args)
				sc.keys = append(sc.keys, key)
			}
		}
		agg.PagesTouched = sc.fetch(t, ix, pool)
		agg.UsedIndex = true
	} else {
		// Shared scan: one sequential read of the table for the whole batch;
		// every live binding partitions the same snapshot.
		t.ViewInto(&sc.view)
		rpp := t.RowsPerPage()
		pages := (sc.view.NumRows + rpp - 1) / rpp
		pool.GetBatch(t.Extent, 0, pages)
		agg.PagesTouched += pages
		agg.FullScan = true
		scanN = sc.view.NumRows
	}

	// Every binding's matches go into one buffer (offs[i] is where binding
	// i's start), so a row select projects the whole batch at once.
	sc.matched = sc.matched[:0]
	sc.offs = sc.offs[:0]
	probed := 0 // live bindings seen: the next entry of sc.rids
	for i := range argSets {
		sc.offs = append(sc.offs, len(sc.matched))
		if errs[i] != nil {
			continue
		}
		filters[i].bind(st, plan, &sc.view, argSets[i])
		examined := scanN
		if ix != nil {
			cand := sc.rids[probed]
			probed++
			examined = len(cand)
			sc.matched = filters[i].appendMatches(sc.matched, cand)
		} else {
			sc.matched = filters[i].appendScanMatches(sc.matched, scanN)
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
			// A failing per-query execution charges nothing (Exec returns
			// before its stat update and CPU phase); keep the batch's
			// row accounting symmetric.
			sc.matched = sc.matched[:sc.offs[i]]
			continue
		}
		agg.RowsExamined += examined
		agg.RowsReturned += returned
	}
	if st.Agg != AggNone {
		return results, errs, agg
	}
	// One block for the batch; each binding's result is its view of it.
	var cols []interp.RowCol
	if len(sc.matched) > 0 {
		cols = emit(plan, &sc.view, sc.matched)
	}
	sc.offs = append(sc.offs, len(sc.matched))
	views := make([]interp.RowSet, n)
	for i := range views {
		if errs[i] == nil {
			lo := sc.offs[i]
			views[i] = interp.RowSet{Header: plan.hdr, Cols: cols, Lo: lo, N: sc.offs[i+1] - lo}
			results[i] = &views[i]
		}
	}
	return results, errs, agg
}

// add folds one per-statement ExecInfo into an aggregate.
func (info *ExecInfo) add(o ExecInfo) {
	info.PagesTouched += o.PagesTouched
	info.RowsExamined += o.RowsExamined
	info.RowsReturned += o.RowsReturned
	info.UsedIndex = info.UsedIndex || o.UsedIndex
	info.FullScan = info.FullScan || o.FullScan
}

func executeInsert(st *Stmt, t *storage.Table, pool *buffer.Pool, args []any, info *ExecInfo) (any, ExecInfo, error) {
	if len(st.Values) != len(t.Schema.Cols) {
		return nil, *info, fmt.Errorf("sqlmini: insert arity %d, want %d",
			len(st.Values), len(t.Schema.Cols))
	}
	sc := getScratch()
	defer putScratch(sc)
	row := sc.row[:0]
	for i, ord := range st.Values {
		if ord >= 0 {
			row = append(row, args[ord])
		} else {
			row = append(row, st.Lits[i])
		}
	}
	sc.row = row
	rid, err := t.Insert(row)
	if err != nil {
		return nil, *info, err
	}
	pool.Put(buffer.PageID{Extent: t.Extent, Page: t.PageOf(rid)})
	info.PagesTouched = 1
	info.RowsReturned = 1
	info.Matched = []int{rid}
	return int64(1), *info, nil
}

// emit projects rows rids of the view — the matches of one binding, or of
// every binding of a batch back to back — into the columns of a result: typed
// vectors copied out of the table's, boxed cells only for a degraded column.
// It is shared by the per-query and batched paths so their observable results
// cannot diverge. The caller has checked plan.selErr; rids may be pooled
// scratch, emit only reads it.
func emit(plan *stmtPlan, view *storage.View, rids []int) []interp.RowCol {
	cols := make([]interp.RowCol, len(plan.cols))
	for k, ci := range plan.cols {
		switch c := &view.Cols[ci]; {
		case c.Anys != nil:
			cells := make([]any, len(rids))
			for i, rid := range rids {
				cells[i] = c.Anys[rid]
			}
			cols[k].Anys = cells
		case c.Kind == storage.TInt:
			ints := make([]int64, len(rids))
			for i, rid := range rids {
				ints[i] = c.Ints[rid]
			}
			cols[k].Ints = ints
		default:
			strs := make([]string, len(rids))
			for i, rid := range rids {
				strs[i] = c.Strs[rid]
			}
			cols[k].Strs = strs
		}
	}
	return cols
}

// fetch is the index access path, per-query or batched: it probes ix with
// sc.keys under one table lock, touches the distinct bucket pages and the
// distinct data pages of the candidates once each in ascending order (the
// shared, RID-ordered fetch the paper cites, §I), snapshots the table into
// sc.view and returns the pages touched. The candidate lists (sc.rids, one per
// key) alias the index's storage: read-only, never to escape the execution.
// Insert publishes column values before index rids under one table lock, so
// the snapshot, taken after the probe, holds every candidate.
func (sc *scratch) fetch(t *storage.Table, ix *storage.Index, pool *buffer.Pool) int {
	sc.rids, sc.pages = t.Probe(ix, sc.keys, sc.rids[:0], sc.pages[:0])
	rpp := t.RowsPerPage()
	sc.pages2 = sc.pages2[:0]
	for _, r := range sc.rids {
		for _, rid := range r {
			sc.pages2 = append(sc.pages2, rid/rpp)
		}
	}
	buckets, data := sortDedupe(sc.pages), sortDedupe(sc.pages2)
	for _, pg := range buckets {
		pool.Get(buffer.PageID{Extent: ix.Extent, Page: pg})
	}
	for _, pg := range data {
		pool.Get(buffer.PageID{Extent: t.Extent, Page: pg})
	}
	t.ViewInto(&sc.view)
	return len(buckets) + len(data)
}

// pickDriver returns the position of the first predicate whose column is
// indexed and that index — the driving access path — or -1 and nil for a full
// scan. It is shared by the per-query and batched paths so their access-path
// policy cannot diverge (the batch==per-query result identity depends on it).
func pickDriver(t *storage.Table, conds []Cond) (int, *storage.Index) {
	for i, c := range conds {
		if ix := t.Index(c.Col); ix != nil {
			return i, ix
		}
	}
	return -1, nil
}

// sortDedupe sorts ps in place and compacts away duplicates, returning the
// distinct prefix — the allocation-free replacement for the page-set maps.
func sortDedupe(ps []int) []int {
	slices.Sort(ps)
	return slices.Compact(ps)
}

func aggregate(st *Stmt, plan *stmtPlan, view *storage.View, rids []int) (any, error) {
	if st.Agg == AggCount {
		return storage.BoxInt(int64(len(rids))), nil
	}
	ci := plan.aggCI
	if ci < 0 {
		return nil, fmt.Errorf("sqlmini: %s: no column %q", plan.table.Name, st.AggCol)
	}
	var sum int64
	var best int64
	have := false
	col := &view.Cols[ci]
	if col.Anys == nil && col.Kind == storage.TInt {
		// Typed path: sum/extremes over the int vector, no boxing.
		ints := col.Ints
		for _, rid := range rids {
			v := ints[rid]
			sum += v
			if !have {
				best = v
				have = true
			} else if (st.Agg == AggMax && v > best) || (st.Agg == AggMin && v < best) {
				best = v
			}
		}
	} else {
		// String or degraded column: the boxed check (and its error) fires
		// per matched row, exactly as the row-wise evaluator did.
		for _, rid := range rids {
			v, ok := col.Any(rid).(int64)
			if !ok {
				return nil, fmt.Errorf("sqlmini: aggregate over non-int column %q", st.AggCol)
			}
			sum += v
			if !have {
				best = v
				have = true
			} else if (st.Agg == AggMax && v > best) || (st.Agg == AggMin && v < best) {
				best = v
			}
		}
	}
	switch st.Agg {
	case AggSum:
		return storage.BoxInt(sum), nil
	case AggMax, AggMin:
		if !have {
			return nil, nil
		}
		return storage.BoxInt(best), nil
	}
	return nil, fmt.Errorf("sqlmini: unsupported aggregate")
}
