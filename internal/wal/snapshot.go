package wal

import (
	"fmt"
	"sort"

	"repro/internal/storage"
)

// Snapshot is a checkpoint: the full materialized state as of LSN. Tables
// are ordered by data extent — the order they were created in — and rows by
// row id, so restoring replays the original load exactly and every row
// lands on its original rid. That identity is what keeps the shard router's
// global-order bookkeeping valid across a crash.
type Snapshot struct {
	LSN    int64
	Tables []TableSnap
}

// TableSnap is one table's captured state.
type TableSnap struct {
	Name        string
	Cols        []storage.Column
	RowsPerPage int
	Extent      int
	Rows        [][]any
	Indexes     []IndexDef
}

// IndexDef is a captured index definition (rebuilt, not copied, on restore).
type IndexDef struct {
	Column string
	Unique bool
}

// Capture materializes a snapshot of cat as of lsn. The caller must
// guarantee no writes are in flight (internal/replica holds its group write
// lock) and that every record ≤ lsn is applied to cat.
func Capture(cat *storage.Catalog, lsn int64) *Snapshot {
	snap := &Snapshot{LSN: lsn}
	for _, src := range LiveTables(cat) {
		ts := TableSnap{
			Name:        src.Name,
			Cols:        append([]storage.Column(nil), src.Schema.Cols...),
			RowsPerPage: src.RowsPerPage,
			Extent:      cat.Table(src.Name).Extent,
			Rows:        make([][]any, src.N),
			Indexes:     src.Indexes,
		}
		for rid := range ts.Rows {
			ts.Rows[rid] = src.Row(rid)
		}
		snap.Tables = append(snap.Tables, ts)
	}
	return snap
}

// Loader is the bulk-load surface a copy is built through — server.Server
// implements it, Copy drives it.
type Loader interface {
	CreateTable(name string, schema *storage.Schema, rowsPerPage int) error
	InsertRow(table string, row []any) error
	FinishLoad()
	AddIndex(table, column string, unique bool) error
}

// TableSource is one table as the copier reads it: its DDL and the rows
// [0, N) by row id, fetched one at a time — a live table is never
// materialized. A source with a nil Schema only adds rows, to a table the
// destinations already hold: the second source of a table two shards feed (a
// merge), a migration's captured double-writes.
type TableSource struct {
	Name        string
	Schema      *storage.Schema
	RowsPerPage int
	Indexes     []IndexDef
	N           int
	Row         func(rid int) []any
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
		srcs[i] = TableSource{Name: t.Name, Schema: t.Schema, RowsPerPage: t.RowsPerPage(), N: t.NumRows(), Row: t.Row}
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
// one replica group; a bare server is a set of one). Every destination gets
// every table, created in srcs order; each source is read once in rid order
// and pick names the destination of each row — All, or a nil pick, meaning
// every one; then FinishLoad and the indexes. kept[src][d] lists the rids of
// source src that destination d was picked for, in landing order; All rows
// are not listed.
func Copy[L Loader](dsts [][]L, srcs []TableSource, pick func(src, rid int, row []any) int) ([][][]int, error) {
	each := func(f func(L) error) error {
		for _, set := range dsts {
			for _, l := range set {
				if err := f(l); err != nil {
					return err
				}
			}
		}
		return nil
	}
	built := false
	for _, s := range srcs {
		if s.Schema == nil {
			continue
		}
		built = true
		if err := each(func(l L) error { return l.CreateTable(s.Name, s.Schema, s.RowsPerPage) }); err != nil {
			return nil, fmt.Errorf("wal: copy: create %s: %w", s.Name, err)
		}
	}
	kept := make([][][]int, len(srcs))
	for i, s := range srcs {
		kept[i] = make([][]int, len(dsts))
		for rid := 0; rid < s.N; rid++ {
			row, to := s.Row(rid), dsts
			if pick != nil {
				if d := pick(i, rid, row); d < All || d >= len(dsts) {
					return nil, fmt.Errorf("wal: copy %s: row %d picked destination %d of %d", s.Name, rid, d, len(dsts))
				} else if d != All {
					to, kept[i][d] = dsts[d:d+1], append(kept[i][d], rid)
				}
			}
			for _, set := range to {
				for _, l := range set {
					if err := l.InsertRow(s.Name, row); err != nil {
						return nil, fmt.Errorf("wal: copy %s: %w", s.Name, err)
					}
				}
			}
		}
	}
	if built {
		each(func(l L) error { l.FinishLoad(); return nil })
	}
	for _, s := range srcs {
		for _, ix := range s.Indexes {
			if err := each(func(l L) error { return l.AddIndex(s.Name, ix.Column, ix.Unique) }); err != nil {
				return nil, fmt.Errorf("wal: copy: index %s(%s): %w", s.Name, ix.Column, err)
			}
		}
	}
	return kept, nil
}

// RestoreTo loads the snapshot into an empty server: Copy, keeping every row.
func (s *Snapshot) RestoreTo(l Loader) error {
	srcs := make([]TableSource, len(s.Tables))
	for i, ts := range s.Tables {
		srcs[i] = TableSource{
			Name: ts.Name, Schema: storage.NewSchema(ts.Cols...), RowsPerPage: ts.RowsPerPage,
			Indexes: ts.Indexes, N: len(ts.Rows), Row: func(rid int) []any { return ts.Rows[rid] },
		}
	}
	_, err := Copy([][]Loader{{l}}, srcs, nil)
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

func (s *Snapshot) wire() (wireSnapshot, error) {
	w := wireSnapshot{LSN: s.LSN}
	for _, ts := range s.Tables {
		wt := wireTable{Name: ts.Name, RowsPerPage: ts.RowsPerPage, Extent: ts.Extent, Indexes: ts.Indexes}
		for _, c := range ts.Cols {
			wt.Cols = append(wt.Cols, wireCol{Name: c.Name, Int: c.Type == storage.TInt})
		}
		for _, row := range ts.Rows {
			vs, err := encodeVals(row)
			if err != nil {
				return w, err
			}
			wt.Rows = append(wt.Rows, vs)
		}
		w.Tables = append(w.Tables, wt)
	}
	return w, nil
}

func (w wireSnapshot) snapshot() (*Snapshot, error) {
	s := &Snapshot{LSN: w.LSN}
	for _, wt := range w.Tables {
		ts := TableSnap{Name: wt.Name, RowsPerPage: wt.RowsPerPage, Extent: wt.Extent, Indexes: wt.Indexes}
		for _, c := range wt.Cols {
			typ := storage.TString
			if c.Int {
				typ = storage.TInt
			}
			ts.Cols = append(ts.Cols, storage.Column{Name: c.Name, Type: typ})
		}
		for _, row := range wt.Rows {
			ts.Rows = append(ts.Rows, decodeVals(row))
		}
		s.Tables = append(s.Tables, ts)
	}
	return s, nil
}
