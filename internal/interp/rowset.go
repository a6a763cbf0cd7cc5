package interp

import "sort"

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

// RowCol is one column of a RowSet: a typed vector, or boxed cells for a
// column whose values are not all of one type (the only form that can hold
// null). At most one of the three is non-nil.
type RowCol struct {
	Ints []int64
	Strs []string
	Anys []any
}

// Cell returns cell i as a Value.
func (c *RowCol) Cell(i int) Value {
	switch {
	case c.Anys != nil:
		return c.Anys[i]
	case c.Ints != nil:
		return boxInt(c.Ints[i])
	default:
		return c.Strs[i]
	}
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
// built, and a result from Do is held only until it is encoded or boxed: it
// pins the table vectors of its snapshot, not a copy of them.
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

// LiftRows is the inverse of RowSet.Rows, for a result that arrives boxed:
// every column holds the boxed cells, in ascending name order, and the
// selection is the identity. It reports false when the rows do not all have
// the same columns.
func LiftRows(rows Rows) (*RowSet, bool) {
	if len(rows) == 0 {
		return &RowSet{Header: &RowHeader{}}, true
	}
	names := make([]string, 0, len(rows[0]))
	for name := range rows[0] {
		names = append(names, name)
	}
	sort.Strings(names)
	cells := make([]any, len(names)*len(rows))
	cols := make([]RowCol, len(names))
	for k := range cols {
		cols[k].Anys = cells[k*len(rows) : (k+1)*len(rows)]
	}
	for i, row := range rows {
		if len(row) != len(names) {
			return nil, false
		}
		for k, name := range names {
			v, ok := row[name]
			if !ok {
				return nil, false
			}
			cols[k].Anys[i] = v
		}
	}
	return &RowSet{Header: NewRowHeader(names), Cols: cols, N: len(rows)}, true
}
