package wal

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"unicode/utf8"

	"repro/internal/storage"
)

// Snapshot is a checkpoint: the full state as of LSN, one copy source per
// table. Tables are ordered by data extent — the order they were
// created in — and rows by row id, so restoring replays the original load
// exactly and every row lands on its original rid. That identity is what
// keeps the shard router's global-order bookkeeping valid across a crash.
type Snapshot struct {
	LSN    int64
	Tables []TableSource
}

// IndexDef is a captured index definition (rebuilt, not copied, on restore).
type IndexDef struct {
	Column string
	Unique bool
}

// Capture takes a snapshot of cat as of lsn: each table's View, cut off at
// its current row count. Nothing is copied or boxed — storage is append-only,
// so the rows below a cutoff never change while the table grows behind them.
// The caller must guarantee no writes are in flight (internal/replica holds
// its group write lock) and that every record ≤ lsn is applied to cat.
func Capture(cat *storage.Catalog, lsn int64) *Snapshot {
	return &Snapshot{LSN: lsn, Tables: LiveTables(cat)}
}

// Loader is the bulk-load surface a copy is built through — server.Server
// implements it, Copy drives it.
type Loader interface {
	CreateTable(name string, schema *storage.Schema, rowsPerPage int) error
	AppendRows(table string, v *storage.View, rids []int) error
	FinishLoad()
	AddIndex(table, column string, unique bool) error
}

// TableSource is one table as the copier reads it: its DDL and its rows
// [0, View.NumRows) as typed vectors — a live table is never materialized. A
// source with a nil Schema only adds rows, to a table the destinations
// already hold: the second source of a table two shards feed (a merge), a
// migration's captured double-writes.
type TableSource struct {
	Name        string
	Schema      *storage.Schema
	RowsPerPage int
	Extent      int
	Indexes     []IndexDef
	View        storage.View
}

// LiveTables lists cat's tables as copy sources in extent order — creation
// order, so a copy numbers its extents identically — each cut off at its
// current row count. Storage is append-only: rows below the cutoff stay
// unchanged while inserts continue, which lets a migration copy under traffic.
func LiveTables(cat *storage.Catalog) []TableSource {
	tables := cat.Tables()
	sort.Slice(tables, func(i, j int) bool { return tables[i].Extent < tables[j].Extent })
	srcs := make([]TableSource, len(tables))
	for i, t := range tables {
		srcs[i] = TableSource{Name: t.Name, Schema: t.Schema, RowsPerPage: t.RowsPerPage(), Extent: t.Extent}
		t.ViewInto(&srcs[i].View)
		for _, ix := range t.Indexes() {
			srcs[i].Indexes = append(srcs[i].Indexes, IndexDef{Column: ix.Column, Unique: ix.Unique})
		}
	}
	return srcs
}

// All is the pick result that hands a row to every destination.
const All = -1

// Copy is the one way a copy of a shard's data comes to exist. Each
// destination is a set of loaders that receive the same calls (the copies of
// one replica group; a bare server is a set of one). Each source's rows are
// partitioned first — pick names the destination of each row, All (or a nil
// pick) every one. Then every loader, on a goroutine of its own, creates every
// table in srcs order, gathers its rows of each column in one AppendRows per
// source, calls FinishLoad and builds the indexes: one loader's calls keep
// that order, and loaders share only the read-only sources. The error
// returned is the first in (set, loader) order, after every loader is done.
// kept[src][d] lists the rids of source src that destination d was picked
// for, in landing order; All rows are not listed.
func Copy[L Loader](dsts [][]L, srcs []TableSource, pick func(src, rid int, v *storage.View) int) ([][][]int, error) {
	kept := make([][][]int, len(srcs))
	lands := make([][][]int, len(srcs)) // lands[src][d]: the rids destination d appends
	for i := range srcs {
		s := &srcs[i]
		n := s.View.NumRows
		kept[i], lands[i] = make([][]int, len(dsts)), make([][]int, len(dsts))
		if n == 0 {
			continue
		}
		var all []int // the rows picked All: every row, for a nil pick
		for rid := 0; rid < n; rid++ {
			d := All
			if pick != nil {
				d = pick(i, rid, &s.View)
			}
			switch {
			case d < All || d >= len(dsts):
				return nil, fmt.Errorf("wal: copy %s: row %d picked destination %d of %d", s.Name, rid, d, len(dsts))
			case d == All:
				all = append(all, rid)
			default:
				kept[i][d] = append(kept[i][d], rid)
			}
		}
		for d := range dsts {
			rids := all
			if len(all) < n { // some rows went to one destination: merge in the All rows
				if rids = kept[i][d]; len(all) > 0 {
					rids = append(slices.Clip(rids), all...)
					slices.Sort(rids)
				}
			}
			lands[i][d] = rids
		}
	}
	load := func(l L, d int) error {
		built := false
		for _, s := range srcs {
			if s.Schema != nil {
				built = true
				if err := l.CreateTable(s.Name, s.Schema, s.RowsPerPage); err != nil {
					return fmt.Errorf("wal: copy: create %s: %w", s.Name, err)
				}
			}
		}
		for i := range srcs {
			if rids := lands[i][d]; len(rids) > 0 {
				if err := l.AppendRows(srcs[i].Name, &srcs[i].View, rids); err != nil {
					return fmt.Errorf("wal: copy %s: %w", srcs[i].Name, err)
				}
			}
		}
		if built {
			l.FinishLoad()
		}
		for _, s := range srcs {
			for _, ix := range s.Indexes {
				if err := l.AddIndex(s.Name, ix.Column, ix.Unique); err != nil {
					return fmt.Errorf("wal: copy: index %s(%s): %w", s.Name, ix.Column, err)
				}
			}
		}
		return nil
	}
	errs := make([][]error, len(dsts))
	var wg sync.WaitGroup
	for d, set := range dsts {
		errs[d] = make([]error, len(set))
		for j, l := range set {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[d][j] = load(l, d)
			}()
		}
	}
	wg.Wait()
	for _, set := range errs {
		for _, err := range set {
			if err != nil {
				return nil, err
			}
		}
	}
	return kept, nil
}

// RestoreTo loads the snapshot into an empty server: Copy, keeping every row.
func (s *Snapshot) RestoreTo(l Loader) error {
	_, err := Copy([][]Loader{{l}}, s.Tables, nil)
	return err
}

// wire encoding for FileStore snapshots: values tagged like records.

type wireTable struct {
	Name        string      `json:"name"`
	Cols        []wireCol   `json:"cols"`
	RowsPerPage int         `json:"rpp"`
	Extent      int         `json:"extent"`
	Rows        [][]wireVal `json:"rows"`
	Indexes     []IndexDef  `json:"indexes,omitempty"`
}

type wireCol struct {
	Name string `json:"name"`
	Int  bool   `json:"int"`
}

type wireSnapshot struct {
	LSN    int64       `json:"lsn"`
	Tables []wireTable `json:"tables"`
}

// wire renders the snapshot row by row, reading each cell from its typed
// vector in place: a cell's wire value points into the view (a string that
// is not valid UTF-8 is copied out as its bytes).
func (s *Snapshot) wire() wireSnapshot {
	w := wireSnapshot{LSN: s.LSN}
	for _, ts := range s.Tables {
		wt := wireTable{Name: ts.Name, RowsPerPage: ts.RowsPerPage, Extent: ts.Extent, Indexes: ts.Indexes}
		for _, c := range ts.Schema.Cols {
			wt.Cols = append(wt.Cols, wireCol{Name: c.Name, Int: c.Type == storage.TInt})
		}
		v := &ts.View
		for rid := 0; rid < v.NumRows; rid++ {
			row := make([]wireVal, len(v.Cols))
			for i := range v.Cols {
				if c := &v.Cols[i]; c.Kind == storage.TInt {
					row[i].I = &c.Ints[rid]
				} else if utf8.ValidString(c.Strs[rid]) {
					row[i].S = &c.Strs[rid]
				} else {
					row[i].B = []byte(c.Strs[rid]) // lossless, as in a record
				}
			}
			wt.Rows = append(wt.Rows, row)
		}
		w.Tables = append(w.Tables, wt)
	}
	return w
}

// snapshot decodes a wire snapshot, each table's rows landing in a temporary
// table whose View the source keeps. A cell that is not of its column's type
// fails the decode, as Insert rejects it.
func (w wireSnapshot) snapshot() (*Snapshot, error) {
	s := &Snapshot{LSN: w.LSN}
	for _, wt := range w.Tables {
		cols := make([]storage.Column, len(wt.Cols))
		for i, c := range wt.Cols {
			cols[i] = storage.Column{Name: c.Name, Type: storage.TString}
			if c.Int {
				cols[i].Type = storage.TInt
			}
		}
		ts := TableSource{Name: wt.Name, Schema: storage.NewSchema(cols...), RowsPerPage: wt.RowsPerPage, Extent: wt.Extent, Indexes: wt.Indexes}
		t := storage.NewTable(wt.Name, ts.Schema, wt.Extent)
		for _, row := range wt.Rows {
			if _, err := t.Insert(decodeVals(row)); err != nil {
				return nil, fmt.Errorf("wal: snapshot: %w", err)
			}
		}
		t.ViewInto(&ts.View)
		s.Tables = append(s.Tables, ts)
	}
	return s, nil
}
