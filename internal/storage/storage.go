// Package storage implements the server's tables: typed schemas, row
// storage laid out in fixed-fanout pages, hash indexes (unique and
// secondary), and the page-access bookkeeping the buffer pool and disk model
// consume. It is deliberately simple — heap files plus hash indexes — which
// matches the access paths the paper's workloads exercise (point lookups by
// key, secondary-index range-of-equals lookups, full scans, appends).
//
// Rows are stored column-wise: each column keeps a typed vector ([]int64 or
// []string), so execution reads unboxed values with no per-row slice or
// interface dispatch. Insert takes a row in the interpreter's []any
// vocabulary and rejects a value that is not of its column's type; Row boxes
// one back; the hot path reads through View instead. See README.md for the
// layout and the accessor contract.
package storage

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"sync"

	"repro/internal/interp"
)

// ColType is a column's type.
type ColType int

const (
	// TInt is a 64-bit integer column.
	TInt ColType = iota
	// TString is a string column.
	TString
)

// String names the Go type of a column's values.
func (c ColType) String() string {
	if c == TInt {
		return "int64"
	}
	return "string"
}

// fits reports whether v is a value of type c.
func (c ColType) fits(v any) bool {
	switch v.(type) {
	case int64:
		return c == TInt
	case string:
		return c == TString
	}
	return false
}

// Column describes one column.
type Column struct {
	Name string
	Type ColType
}

// Schema is an ordered column list.
type Schema struct {
	Cols []Column
	by   map[string]int
}

// NewSchema builds a schema.
func NewSchema(cols ...Column) *Schema {
	s := &Schema{Cols: cols, by: make(map[string]int, len(cols))}
	for i, c := range cols {
		s.by[c.Name] = i
	}
	return s
}

// ColIndex returns a column's position, or -1.
func (s *Schema) ColIndex(name string) int {
	if i, ok := s.by[name]; ok {
		return i
	}
	return -1
}

// colVec is one column's storage: the typed vector its declared type picks.
type colVec struct {
	kind ColType
	ints []int64
	strs []string
}

// append stores one value, which Insert has checked is of the column's type.
func (c *colVec) append(v any) {
	if c.kind == TInt {
		c.ints = append(c.ints, v.(int64))
	} else {
		c.strs = append(c.strs, v.(string))
	}
}

// DefaultRowsPerPage is the page fanout used when a table does not override
// it. Wide rows (user profiles with text) use smaller fanouts.
const DefaultRowsPerPage = 64

// Table is a heap table plus its indexes.
type Table struct {
	Name   string
	Schema *Schema
	Extent int // buffer-pool extent id for data pages

	mu          sync.RWMutex
	rowsPerPage int
	numRows     int
	cols        []colVec
	indexes     []*Index // sorted by column
}

// Index is a hash index on one column. IndexExtent pages are modelled as
// hash buckets spread over the index extent. The rid lists double as the
// index's key statistics: IndexKeyCount answers "how many rows carry this
// key" without touching a data page, which the shard router's scatter
// pruning consults.
//
// A key maps to one int32, and nothing in an index holds a pointer besides
// its slices' own arrays: v >= 0 is the key's only rid, and v < 0 names
// wins[^v], a window of slab holding the rids of a key with several. Every key
// is of the column's declared type and lives in the typed table or map, hashed
// and compared unboxed; a probe with a key of another type finds nothing. A
// rid is an int32 because a table holds at most math.MaxInt32 rows (Insert and
// AppendRows refuse one more).
type Index struct {
	Column string
	Unique bool
	Extent int
	Pages  int // bucket pages

	ci   int              // Column's schema position
	ints intTable         // the typed table of a TInt column; no slots otherwise
	strs map[string]int32 // the typed map of a TString column
	wins []window         // the rid lists of keys with several rows, in slab
	slab []int32
}

// window is one key's rids: slab[off:off+n], with room up to off+cap.
type window struct{ off, n, cap int32 }

// add appends rid to key's rids; key is of the column's type.
func (ix *Index) add(key any, rid int) {
	if k, ok := key.(int64); ok {
		if v, fresh := ix.ints.upsert(k, int32(rid)); !fresh {
			ix.push(v, int32(rid))
		}
		return
	}
	ix.addString(key.(string), int32(rid))
}

// addString appends rid to k's rids in the string map.
func (ix *Index) addString(k string, rid int32) {
	if v, ok := ix.strs[k]; ok {
		ix.push(&v, rid)
		rid = v
	}
	ix.strs[k] = rid
}

// push appends rid to the rids of a key whose value is *v: its second rid makes
// v a window, and a full window moves to the slab's end with twice the room,
// never into its neighbour.
func (ix *Index) push(v *int32, rid int32) {
	if *v >= 0 {
		ix.wins = append(ix.wins, window{int32(len(ix.slab)), 2, 2})
		ix.slab = append(ix.slab, *v, rid)
		*v = ^int32(len(ix.wins) - 1)
		return
	}
	w := &ix.wins[^*v]
	if w.n == w.cap {
		off := int32(len(ix.slab))
		ix.slab = append(append(ix.slab, ix.slab[w.off:w.off+w.n]...), make([]int32, w.n)...)
		w.off, w.cap = off, 2*w.n
	}
	ix.slab[w.off+w.n] = rid
	w.n++
}

// rids returns key's rids, ascending: a window of the index's slab, or the one
// rid in the caller's one.
func (ix *Index) rids(key any, one *[1]int32) []int32 {
	v, ok := int32(0), false
	switch k := key.(type) {
	case int64:
		v, ok = ix.ints.get(k)
	case string:
		v, ok = ix.strs[k]
	}
	switch {
	case !ok:
		return nil
	case v >= 0:
		one[0] = v
		return one[:]
	}
	w := ix.wins[^v]
	return ix.slab[w.off : w.off+w.n]
}

// intTable is an int column's key table: one power-of-two array of 12-byte
// slots, a Fibonacci-hashed home slot and linear probing, at most 7/8 full, no
// pointers. A slot holds its key as two halves, so no field is 8-byte aligned
// and no slot is padded. A slot is free when its value is free, which no index
// value is (a rid is >= 0, a window ^i > math.MinInt32), so every int64 is a
// key.
type intTable struct {
	slots []slot
	n     int    // keys held
	shift uint   // 64 - log2(len(slots)): home keeps a hash's top bits
	seed  uint64 // per table: clients cannot choose keys that share a home
}

type slot struct {
	lo, hi uint32 // the key's low and high halves
	v      int32
}

func (s *slot) key() int64 { return int64(uint64(s.hi)<<32 | uint64(s.lo)) }

const free = math.MinInt32

// newIntTable returns an empty table with room for keys keys before it grows.
func newIntTable(keys int, seed uint64) intTable {
	size, shift := 8, uint(61)
	for size/8*7 < keys {
		size, shift = 2*size, shift-1
	}
	t := intTable{slots: make([]slot, size), shift: shift, seed: seed}
	for i := range t.slots {
		t.slots[i].v = free
	}
	return t
}

// home is k's first slot: the top bits of k^seed times 2^64 over the golden ratio.
func (t *intTable) home(k int64) int {
	return int((uint64(k) ^ t.seed) * 0x9e3779b97f4a7c15 >> t.shift)
}

// get returns k's value.
func (t *intTable) get(k int64) (v int32, ok bool) {
	mask := len(t.slots) - 1
	for i := t.home(k); t.n > 0 && t.slots[i].v != free; i = (i + 1) & mask { // the zero table has no slots
		if t.slots[i].key() == k {
			return t.slots[i].v, true
		}
	}
	return 0, false
}

// upsert finds k, returning its value to update in place, or inserts it with
// value v and reports fresh, doubling the table once it is over 7/8 full.
func (t *intTable) upsert(k int64, v int32) (val *int32, fresh bool) {
	i := t.home(k)
	for mask := len(t.slots) - 1; t.slots[i].v != free; i = (i + 1) & mask {
		if t.slots[i].key() == k {
			return &t.slots[i].v, false
		}
	}
	t.slots[i] = slot{uint32(k), uint32(k >> 32), v}
	if t.n++; t.n > len(t.slots)/8*7 {
		t.grow()
	}
	return nil, true
}

// grow moves every key into a table twice the size.
func (t *intTable) grow() {
	old := t.slots
	*t = newIntTable(t.n, t.seed)
	for _, s := range old {
		if s.v != free {
			t.upsert(s.key(), s.v)
		}
	}
}

// NewTable creates an empty table. Extents are assigned by the catalog.
func NewTable(name string, schema *Schema, extent int) *Table {
	cols := make([]colVec, len(schema.Cols))
	for i, c := range schema.Cols {
		cols[i].kind = c.Type
	}
	return &Table{
		Name:        name,
		Schema:      schema,
		Extent:      extent,
		rowsPerPage: DefaultRowsPerPage,
		cols:        cols,
	}
}

// SetRowsPerPage overrides the page fanout (call before loading data).
func (t *Table) SetRowsPerPage(n int) {
	if n > 0 {
		t.mu.Lock()
		t.rowsPerPage = n
		t.mu.Unlock()
	}
}

// RowsPerPage returns the table's page fanout.
func (t *Table) RowsPerPage() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rowsPerPage
}

// buildInts indexes an int column's keys by rid in one counting pass: a key's
// first rid is its value, and a key seen again gets the next window and a
// count, its window's cap. The windows are then laid out back to back in one
// slab, exactly as large as the counts, and filled by a second walk of the
// rows, so a later insert that appends to a full window moves that window
// alone. size is the keys the table starts with room for.
func buildInts(ix *Index, keys []int64, size int) intTable {
	t := newIntTable(size, rand.Uint64())
	for rid, k := range keys {
		switch v, fresh := t.upsert(k, int32(rid)); {
		case fresh:
		case *v >= 0:
			*v = ^int32(len(ix.wins))
			ix.wins = append(ix.wins, window{cap: 2})
		default:
			ix.wins[^*v].cap++
		}
	}
	if len(ix.wins) == 0 {
		return t
	}
	off := int32(0)
	for i := range ix.wins {
		ix.wins[i].off, off = off, off+ix.wins[i].cap
	}
	ix.slab = make([]int32, off) // every rid but the single keys'
	for rid, k := range keys {
		if v, _ := t.get(k); v < 0 {
			w := &ix.wins[^v]
			ix.slab[w.off+w.n], w.n = int32(rid), w.n+1
		}
	}
	return t
}

// AddIndex creates a hash index over an existing column, building it from
// the column's typed vector; it replaces an index the column has.
func (t *Table) AddIndex(column string, unique bool, extent, pages int) error {
	ci := t.Schema.ColIndex(column)
	if ci < 0 {
		return fmt.Errorf("storage: %s: no column %q", t.Name, column)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	c := &t.cols[ci]
	ix := &Index{Column: column, Unique: unique, Extent: extent, Pages: pages, ci: ci}
	size := 0 // the keys a build makes room for: one a row for a unique column
	if unique {
		size = t.numRows
	}
	if c.kind == TInt {
		ix.ints = buildInts(ix, c.ints[:t.numRows], size)
	} else {
		ix.strs = make(map[string]int32, size)
		for rid, k := range c.strs[:t.numRows] {
			ix.addString(k, int32(rid))
		}
	}
	t.indexes = append(slices.DeleteFunc(t.indexes, func(o *Index) bool { return o.Column == column }), ix)
	slices.SortFunc(t.indexes, func(a, b *Index) int { return strings.Compare(a.Column, b.Column) })
	return nil
}

// Index returns the index on column, or nil.
func (t *Table) Index(column string) *Index {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, ix := range t.indexes {
		if ix.Column == column {
			return ix
		}
	}
	return nil
}

// Indexes lists the table's indexes sorted by column name, so callers that
// replicate a physical design (the shard router's partitioner) see a
// deterministic order.
func (t *Table) Indexes() []*Index {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return slices.Clone(t.indexes)
}

// room refuses n more rows past math.MaxInt32, the rows an index's int32 rids
// can name. The caller holds t.mu.
func (t *Table) room(n int) error {
	if t.numRows+n > math.MaxInt32 {
		return fmt.Errorf("storage: %s: %d rows and %d more exceed %d", t.Name, t.numRows, n, math.MaxInt32)
	}
	return nil
}

// Insert appends a row, maintaining indexes, and returns its row id. Every
// value must be of its column's type (int64 or string): a row holding one
// that is not — nil, a bool, a string in an int column — is an error, and
// nothing of it is stored; so is a row past math.MaxInt32. The row slice is
// not retained.
func (t *Table) Insert(row []any) (int, error) {
	if len(row) != len(t.Schema.Cols) {
		return 0, fmt.Errorf("storage: %s: insert arity %d, want %d",
			t.Name, len(row), len(t.Schema.Cols))
	}
	for i, c := range t.Schema.Cols {
		if !c.Type.fits(row[i]) {
			return 0, fmt.Errorf("storage: %s: column %q holds %s, not %T", t.Name, c.Name, c.Type, row[i])
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.room(1); err != nil {
		return 0, err
	}
	rid := t.numRows
	for i := range t.cols {
		t.cols[i].append(row[i])
	}
	t.numRows++
	for _, ix := range t.indexes {
		ix.add(row[ix.ci], rid)
	}
	return rid, nil
}

// AppendRows appends rows rids of v, in order, gathering each column once,
// typed vector to typed vector. A column of v whose type is not the table's
// is an error, as are rows past math.MaxInt32, and nothing is appended.
// Existing indexes are maintained. v is not retained.
func (t *Table) AppendRows(v *View, rids []int) error {
	if len(v.Cols) != len(t.cols) {
		return fmt.Errorf("storage: %s: append arity %d, want %d", t.Name, len(v.Cols), len(t.cols))
	}
	for i, c := range t.Schema.Cols {
		if v.Cols[i].Kind != c.Type {
			return fmt.Errorf("storage: %s: column %q holds %s, not %s", t.Name, c.Name, c.Type, v.Cols[i].Kind)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.room(len(rids)); err != nil {
		return err
	}
	base := t.numRows
	for i := range t.cols {
		c, s := &t.cols[i], &v.Cols[i]
		if c.kind == TInt {
			c.ints = gather(c.ints, s.Ints, rids)
		} else {
			c.strs = gather(c.strs, s.Strs, rids)
		}
	}
	t.numRows += len(rids)
	for _, ix := range t.indexes {
		for k, rid := range rids {
			ix.add(v.Cols[ix.ci].Any(rid), base+k)
		}
	}
	return nil
}

// gather appends src[rid] for every rid to dst.
func gather[T any](dst, src []T, rids []int) []T {
	dst = slices.Grow(dst, len(rids))
	for _, rid := range rids {
		dst = append(dst, src[rid])
	}
	return dst
}

// Row materializes row rid as a fresh boxed slice (compatibility shim for
// generators and tests; execution reads columns through View instead).
func (t *Table) Row(rid int) []any {
	var v View
	t.ViewInto(&v)
	out := make([]any, len(v.Cols))
	for i := range v.Cols {
		out[i] = v.Cols[i].Any(rid)
	}
	return out
}

// ColView is one column of a View: Ints for a TInt column, Strs for a
// TString one.
type ColView struct {
	Kind ColType
	Ints []int64
	Strs []string
}

// Any returns the boxed value at rid (small ints interned).
func (c *ColView) Any(rid int) any {
	if c.Kind == TInt {
		return interp.BoxInt(c.Ints[rid])
	}
	return c.Strs[rid]
}

// View is a consistent read snapshot of a table: a row count and the column
// vectors as of one instant. Reads through a View take no locks; the vectors
// are append-only, so indexes below NumRows stay valid even while concurrent
// inserts extend the table. Views are cheap (slice headers only); a copy or a
// snapshot keeps one as its zero-copy image of the rows below its cutoff. A
// View is read, never appended to.
type View struct {
	NumRows int
	Cols    []ColView
}

// ViewInto fills v with a snapshot of the table, reusing v.Cols' capacity so
// a pooled View allocates nothing in steady state.
func (t *Table) ViewInto(v *View) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	v.NumRows = t.numRows
	if cap(v.Cols) < len(t.cols) {
		v.Cols = make([]ColView, len(t.cols))
	} else {
		v.Cols = v.Cols[:len(t.cols)]
	}
	for i, c := range t.cols {
		v.Cols[i] = ColView{Kind: c.kind, Ints: c.ints, Strs: c.strs}
	}
}

// Slice returns rows [lo, hi) of v as a view of their own: windows of v's
// vectors, nothing copied.
func (v *View) Slice(lo, hi int) View {
	out := View{NumRows: hi - lo, Cols: make([]ColView, len(v.Cols))}
	for i, c := range v.Cols {
		out.Cols[i].Kind = c.Kind
		if c.Kind == TInt {
			out.Cols[i].Ints = c.Ints[lo:hi:hi]
		} else {
			out.Cols[i].Strs = c.Strs[lo:hi:hi]
		}
	}
	return out
}

// NumRows returns the row count.
func (t *Table) NumRows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.numRows
}

// NumPages returns the data page count.
func (t *Table) NumPages() int {
	n := t.NumRows()
	rpp := t.RowsPerPage()
	return (n + rpp - 1) / rpp
}

// PageOf maps a row id to its data page number.
func (t *Table) PageOf(rid int) int { return rid / t.RowsPerPage() }

// Probed is what Probe writes, into storage its caller owns and reuses: key
// i's rids are Rids[Offs[i]:Offs[i+1]], ascending, and its bucket page is
// Buckets[i].
type Probed struct {
	Rids, Offs, Buckets []int
}

// Key returns key i's rids, a window of p.Rids.
func (p *Probed) Key(i int) []int { return p.Rids[p.Offs[i]:p.Offs[i+1]] }

// Probe is the index lookup, set-oriented: under one read lock it copies, for
// every key in order, the matching row ids and the bucket page the key hashes
// to into p, resetting it first. ix must be one of t's indexes. Nothing in p
// aliases the index. Every rid returned holds the key (an index is typed like
// its column and rows never change), so the probe is the driving predicate.
func (t *Table) Probe(ix *Index, keys []any, p *Probed) {
	p.Rids, p.Offs, p.Buckets = p.Rids[:0], append(p.Offs[:0], 0), p.Buckets[:0]
	var one [1]int32
	t.mu.RLock()
	for _, k := range keys {
		for _, rid := range ix.rids(k, &one) {
			p.Rids = append(p.Rids, int(rid))
		}
		p.Offs = append(p.Offs, len(p.Rids))
	}
	t.mu.RUnlock()
	for _, k := range keys {
		p.Buckets = append(p.Buckets, bucketOf(k, ix.Pages))
	}
}

// IndexKeyCount reports how many rows carry value in column's index — the
// per-shard key statistic the scatter planner prunes with. ok is false when
// the column has no index.
func (t *Table) IndexKeyCount(column string, value any) (n int, ok bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, ix := range t.indexes {
		if ix.Column == column {
			var one [1]int32
			return len(ix.rids(value, &one)), true
		}
	}
	return 0, false
}

// bucketOf maps an index key to its bucket page: FNV-1a over the key as "%v"
// prints it. Keys are almost always int64 or string, which are hashed without
// being formatted onto the heap (an int64's decimal digits are written into a
// stack buffer from its end); the page ids are the same either way, so the
// simulated buffer and disk behaviour does not depend on the route taken.
func bucketOf(v any, pages int) int {
	if pages <= 0 {
		return 0
	}
	var h uint64
	switch x := v.(type) {
	case int64:
		var buf [20]byte // len("-9223372036854775808")
		i, u := len(buf), uint64(x)
		if x < 0 {
			u = -u
		}
		for {
			i--
			buf[i] = byte('0' + u%10)
			if u /= 10; u == 0 {
				break
			}
		}
		if x < 0 {
			i--
			buf[i] = '-'
		}
		h = fnv1a(buf[i:])
	case string:
		h = fnv1a(x)
	default:
		h = fnv1a(fmt.Sprintf("%v", v))
	}
	return int(h % uint64(pages))
}

func fnv1a[T string | []byte](s T) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Catalog is a named collection of tables with extent assignment.
type Catalog struct {
	mu         sync.RWMutex
	tables     map[string]*Table
	nextExtent int
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// CreateTable allocates a table and its data extent.
func (c *Catalog) CreateTable(name string, schema *Schema) *Table {
	c.mu.Lock()
	defer c.mu.Unlock()
	ext := c.nextExtent
	c.nextExtent++
	t := NewTable(name, schema, ext)
	c.tables[name] = t
	return t
}

// NextExtent reserves a fresh extent id (for indexes).
func (c *Catalog) NextExtent() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	ext := c.nextExtent
	c.nextExtent++
	return ext
}

// Table returns a table by name, or nil.
func (c *Catalog) Table(name string) *Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tables[name]
}

// Tables lists all tables.
func (c *Catalog) Tables() []*Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t)
	}
	return out
}
