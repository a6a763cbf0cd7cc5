// The race detector makes sync.Pool drop a quarter of what is Put, so pooled
// frame buffers and call slots are reallocated and the count below does not
// hold under it.

//go:build !race

package net

import (
	"testing"

	"repro/internal/interp"
	"repro/internal/query"
)

// TestRoundTripAllocations pins what one no-op Exec costs the heap, client and
// server together: 11 objects, every one of them part of a decoded value (the
// request's args on the server — its name and SQL repeat the request before
// and are reused; the reply's row set, its maps, strings and boxed values on
// the client) or the sorted key slice the row encoder builds for a backend
// that answers in interp.Rows, as this one does. The frame buffers, the
// response slot, the payload storage of both read loops, the worker and its
// call and reply are reused. (The commit before this path was rebuilt paid 26:
// the measured value is the ceiling.)
func TestRoundTripAllocations(t *testing.T) {
	c := benchPair(t)
	args := []any{int64(42)}
	got := testing.AllocsPerRun(2000, func() {
		if res := c.Exec(query.Req("point", benchSQL, args)); res.Err != nil {
			t.Fatal(res.Err)
		}
	})
	if got > 11 {
		t.Errorf("a no-op round trip allocates %.2f objects, want at most 11", got)
	}
}

// TestRowSetEncodeAllocations pins the columnar arm of the encoder at nothing:
// into a buffer with room, a row result goes onto the wire from its typed
// vectors and its header's precomputed name order. (The interp.Rows arm sorts
// each result's keys into a fresh slice and reads every cell through a map.)
func TestRowSetEncodeAllocations(t *testing.T) {
	rs := &interp.RowSet{
		Header: interp.NewRowHeader([]string{"uid", "nickname"}),
		Cols: []interp.RowCol{
			{Ints: []int64{0, 11, 22, 33, 44, 55, 66, 77, 88, 99, 1 << 40}},
			{Strs: []string{"", "u11", "u22", "u33", "u44", "u55", "u66", "u77", "u88", "u99", "big"}},
		},
		Lo: 1, N: 10,
	}
	rep := &query.Reply{Value: rs}
	buf := make([]byte, 0, 1024)
	got := testing.AllocsPerRun(1000, func() {
		if _, err := appendReply(buf, 7, false, rep); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Errorf("encoding a 10-row columnar result allocates %.2f objects, want 0", got)
	}
}
