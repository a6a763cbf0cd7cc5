package sqlmini

// Statement compilation: a prepared statement's predicate set is resolved
// against its table's schema once (at first execution) and cached on the
// Stmt, and each execution binds the parameters into typed comparators that
// read column vectors directly. Execute/ExecuteBatch then evaluate residual
// filters and full scans without boxing values or dispatching through
// interfaces per row. Only schema-derived facts are cached — access-path
// choice stays dynamic (pickDriver), so an index added after the first
// execution is picked up immediately.

import (
	"fmt"
	"slices"

	"repro/internal/interp"
	"repro/internal/storage"
)

// stmtPlan is the per-(Stmt, Table) schema resolution: column positions for
// the WHERE predicates, the projection, and the aggregate argument. Unknown
// columns resolve to -1 and surface the same errors, at the same points, as
// the uncompiled evaluator did.
type stmtPlan struct {
	table   *storage.Table
	whereCI []int // schema position per WHERE predicate, -1 = unknown
	aggCI   int   // aggregate column position, -1 = unknown or COUNT(*)

	// The projection of a row select (nil for an aggregate): the result
	// header, the schema position of each header column, the result of a
	// binding that matched nothing, and the error a binding that matched
	// something gets when the select list names an unknown column.
	hdr    *interp.RowHeader
	cols   []int
	none   *interp.RowSet
	selErr error
}

// planFor returns the cached plan for t, compiling it on first use. Stmts
// are per-server (each server parses its own prepared cache), so in steady
// state the load hits; the table-identity check keeps a Stmt shared across
// catalogs (differential tests) correct at the cost of a recompile.
func (st *Stmt) planFor(t *storage.Table) *stmtPlan {
	if p := st.plan.Load(); p != nil && p.table == t {
		return p
	}
	p := &stmtPlan{table: t, aggCI: -1}
	p.whereCI = make([]int, len(st.Where))
	for i, c := range st.Where {
		p.whereCI[i] = t.Schema.ColIndex(c.Col)
	}
	if st.Agg != AggNone {
		p.aggCI = t.Schema.ColIndex(st.AggCol)
	} else {
		p.project(st, t)
	}
	st.plan.Store(p)
	return p
}

// project resolves the select list. A row is keyed by column name, so a name
// listed twice is one column of the result, as it was one key of the row map.
func (p *stmtPlan) project(st *Stmt, t *storage.Table) {
	list := st.Cols
	if len(list) == 1 && list[0] == "*" {
		list = make([]string, len(t.Schema.Cols))
		for i, c := range t.Schema.Cols {
			list[i] = c.Name
		}
	}
	names := make([]string, 0, len(list))
	for _, name := range list {
		if slices.Contains(names, name) {
			continue
		}
		ci := t.Schema.ColIndex(name)
		if ci < 0 && p.selErr == nil {
			p.selErr = fmt.Errorf("sqlmini: %s: no column %q", st.Table, name)
		}
		names = append(names, name)
		p.cols = append(p.cols, ci)
	}
	p.hdr = interp.NewRowHeader(names)
	p.none = &interp.RowSet{Header: p.hdr}
}

// condFilter is one binding's residual filter, specialized by column type:
// equality against int columns compares int64 vectors, and string columns
// compare string vectors. A predicate whose bound value is not of its
// column's type (an int column compared to a string, say) makes the whole
// conjunction constant-false: a column holds values of its type only, so no
// row could match.
type condFilter struct {
	constFalse bool
	intCols    [][]int64
	intV       []int64
	strCols    [][]string
	strV       []string
}

func (f *condFilter) reset() {
	f.constFalse = false
	f.intCols = f.intCols[:0]
	f.intV = f.intV[:0]
	f.strCols = f.strCols[:0]
	f.strV = f.strV[:0]
}

// validateWhere reports the statement's first unknown predicate column, in
// predicate order — the same error, at the same point (before any page
// touch), as the uncompiled binder produced.
func validateWhere(st *Stmt, plan *stmtPlan) error {
	for i, c := range st.Where {
		if plan.whereCI[i] < 0 {
			return fmt.Errorf("sqlmini: %s: no column %q", st.Table, c.Col)
		}
	}
	return nil
}

// bind substitutes the call's parameters into the statement's predicates,
// type-specializing each comparison against the view's column kinds, all but
// the driving one (skip, -1 for a scan): a probe returns exactly the rows
// holding its key (storage.Table.Probe), so that one needs no re-check. The
// caller must have run validateWhere first; the view must be snapshotted
// after the access path's index probes so every candidate rid is in bounds.
func (f *condFilter) bind(st *Stmt, plan *stmtPlan, view *storage.View, args []any, skip int) {
	f.reset()
	for i := range st.Where {
		if i == skip {
			continue
		}
		v, _ := st.Where[i].Value(args) // arity is validated before any bind
		col := &view.Cols[plan.whereCI[i]]
		if col.Kind == storage.TInt {
			iv, ok := v.(int64)
			if !ok {
				f.constFalse = true
				continue
			}
			f.intCols = append(f.intCols, col.Ints)
			f.intV = append(f.intV, iv)
		} else {
			sv, ok := v.(string)
			if !ok {
				f.constFalse = true
				continue
			}
			f.strCols = append(f.strCols, col.Strs)
			f.strV = append(f.strV, sv)
		}
	}
}

// release drops the filter's references into table storage so a pooled
// filter does not pin column vectors — the full capacity is cleared because
// earlier, wider binds may have left stale headers past the current length.
func (f *condFilter) release() {
	clear(f.intCols[:cap(f.intCols)])
	clear(f.strCols[:cap(f.strCols)])
	f.reset()
}

// match evaluates the conjunction for one row.
func (f *condFilter) match(rid int) bool {
	for k, col := range f.intCols {
		if col[rid] != f.intV[k] {
			return false
		}
	}
	for k, col := range f.strCols {
		if col[rid] != f.strV[k] {
			return false
		}
	}
	return true
}

// appendMatches filters an index probe's candidates into matched.
func (f *condFilter) appendMatches(matched, rids []int) []int {
	if f.constFalse {
		return matched
	}
	for _, rid := range rids {
		if f.match(rid) {
			matched = append(matched, rid)
		}
	}
	return matched
}

// appendScanMatches filters the rid range [0, n) into matched — the full
// scan evaluates over the column vectors directly, no rid list needed.
func (f *condFilter) appendScanMatches(matched []int, n int) []int {
	if f.constFalse {
		return matched
	}
	if len(f.intCols) == 1 && len(f.strCols) == 0 {
		col, want := f.intCols[0], f.intV[0]
		for rid, v := range col[:n] {
			if v == want {
				matched = append(matched, rid)
			}
		}
		return matched
	}
	if len(f.strCols) == 1 && len(f.intCols) == 0 {
		col, want := f.strCols[0], f.strV[0]
		for rid, v := range col[:n] {
			if v == want {
				matched = append(matched, rid)
			}
		}
		return matched
	}
	for rid := 0; rid < n; rid++ {
		if f.match(rid) {
			matched = append(matched, rid)
		}
	}
	return matched
}
