package interp

import (
	"maps"
	"slices"
	"sort"
)

// RowHeader is the column list of a row result. It is computed once per
// prepared statement and shared by every result of that statement.
type RowHeader struct {
	// Names are the distinct column names, in column order.
	Names []string
	// Wire lists the column positions in ascending name order: the order in
	// which Format and the wire codec list a row's keys.
	Wire []int
}

// NewRowHeader builds the header over names, which must be distinct.
func NewRowHeader(names []string) *RowHeader {
	h := &RowHeader{Names: names, Wire: make([]int, len(names))}
	for i := range h.Wire {
		h.Wire[i] = i
	}
	sort.Slice(h.Wire, func(a, b int) bool { return names[h.Wire[a]] < names[h.Wire[b]] })
	return h
}

// RowCol is one column of a RowSet: a typed vector, Ints or Strs, which is
// all a row result needs, since a storage column holds values of one type and
// LiftRows lifts only rows whose columns do. In a set with rows exactly one of
// the two is non-nil.
type RowCol struct {
	Ints []int64
	Strs []string
}

// Cell returns cell i as a Value.
func (c *RowCol) Cell(i int) Value {
	if c.Ints != nil {
		return BoxInt(c.Ints[i])
	}
	return c.Strs[i]
}

// RowSet is a row result in columnar form: what the execution layers hand to
// each other in place of Rows, from the statement executor through the replica
// group, the shard merge and the wire encoder. Row i of the set is cell At(i)
// of every column: Sel[i] when the set has a selection vector, i when Sel is
// nil (the identity). The bindings of one batch share one block: its columns,
// and each a window of its selection.
//
// A select's block is late-materialized: its columns alias the table's typed
// vectors as of the statement's snapshot and Sel lists the matching row ids,
// so no cell is copied until the wire encoder writes it or Rows boxes it. That
// is safe because storage is append-only — a row is never updated or deleted,
// and an insert only extends a vector — so the aliased prefix holds exactly the
// snapshot's values for as long as the set is held. A RowSet is immutable once
// built (Lift rebuilds one its caller owns), and a result from Do is held only
// until it is encoded or boxed: it pins the table vectors of its snapshot, not
// a copy of them.
//
// A RowSet is not part of the interpreter's value vocabulary: Rows turns it
// into one, and the execution layers' public Exec/ExecBatch do that for every
// result they return (query.Reply).
type RowSet struct {
	Header *RowHeader
	Cols   []RowCol // Cols[k] holds column Header.Names[k]
	Sel    []int    // the N rows' positions in Cols; nil is the identity
	N      int
}

// At returns the position in the columns of row i.
func (rs *RowSet) At(i int) int {
	if rs.Sel == nil {
		return i
	}
	return rs.Sel[i]
}

// Rows boxes the set into the interpreter's row vocabulary.
func (rs *RowSet) Rows() Rows {
	out := make(Rows, rs.N)
	for i := range out {
		row := make(Row, len(rs.Cols))
		for k := range rs.Cols {
			row[rs.Header.Names[k]] = rs.Cols[k].Cell(rs.At(i))
		}
		out[i] = row
	}
	return out
}

// LiftRows is the inverse of RowSet.Rows, for a result that arrives boxed from
// a backend that is not a query.Doer: the columns in ascending name order, a
// column Ints when every cell of it is an int64 and Strs when every cell is a
// string, and the identity selection. It reports false for rows that do not
// all have the same columns, that have none, or that hold a cell of any other
// type (nil, a bool, a list, a row, or both types in one column): no typed
// result boxes to those.
func LiftRows(rows Rows) (*RowSet, bool) {
	rs := new(RowSet)
	return rs, rs.Lift(rows)
}

// Lift is LiftRows into rs, reusing its storage: its header while the rows'
// column names are the header's (a header is never changed once built, so
// whoever still holds the old one reads the old names), its column list and
// its vectors while they have the room. After false rs holds no result.
func (rs *RowSet) Lift(rows Rows) bool {
	rs.Sel, rs.N = nil, len(rows)
	if len(rows) == 0 {
		rs.Header, rs.Cols = &RowHeader{}, rs.Cols[:0]
		return true
	}
	if h := rs.Header; h == nil || len(h.Names) != len(rows[0]) || slices.ContainsFunc(h.Names, func(name string) bool {
		_, ok := rows[0][name]
		return !ok
	}) {
		rs.Header = NewRowHeader(slices.Sorted(maps.Keys(rows[0])))
	}
	names := rs.Header.Names
	if len(names) == 0 || slices.ContainsFunc(rows, func(row Row) bool { return len(row) != len(names) }) {
		return false
	}
	rs.Cols = slices.Grow(rs.Cols[:0], len(names))[:len(names)]
	for k, name := range names {
		c := &rs.Cols[k]
		ints, strs := c.Ints[:0], c.Strs[:0]
		for _, row := range rows {
			switch v := row[name].(type) { // a missing name reads nil
			case int64:
				ints = append(ints, v)
			case string:
				strs = append(strs, v)
			default:
				return false
			}
		}
		switch {
		case len(ints) == len(rows):
			c.Ints, c.Strs = ints, nil
		case len(strs) == len(rows):
			c.Ints, c.Strs = nil, strs
		default:
			return false
		}
	}
	return true
}
