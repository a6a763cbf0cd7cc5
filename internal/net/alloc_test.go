// The race detector makes sync.Pool drop a quarter of what is Put, so pooled
// frame buffers and call slots are reallocated and the count below does not
// hold under it.

//go:build !race

package net

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/interp"
	"repro/internal/query"
)

// TestRoundTripAllocations pins what one no-op Exec costs the heap, client and
// server together: 7 objects, every one of them part of a decoded value (the
// request's args on the server — its name and SQL repeat the request before
// and are reused; the reply's row set, its map and its one string of cells on
// the client — the column names repeat the call's last reply and are reused).
// The frame buffers, the response slot, the payload storage of both read
// loops, the worker and its call and reply are reused, and so is the row set
// the encoder lifts this backend's interp.Rows into (8 while the encoder
// sorted each result's keys into a fresh slice, 11 while every reply
// allocated its names; the commit before this path was rebuilt paid 26: the
// measured value is the ceiling.)
func TestRoundTripAllocations(t *testing.T) {
	c := benchPair(t)
	args := []any{int64(42)}
	got := testing.AllocsPerRun(2000, func() {
		if res := c.Exec(query.Req("point", benchSQL, args)); res.Err != nil {
			t.Fatal(res.Err)
		}
	})
	if got > 7 {
		t.Errorf("a no-op round trip allocates %.2f objects, want at most 7", got)
	}
}

// TestDecodeReplyAllocations decodes a 10-row reply and then a 64-binding
// batch reply on one call's memory of column names, as a client does: the
// second reply reuses the names the first one read, and each reply's string
// cells are substrings of one string of exactly their bytes.
func TestDecodeReplyAllocations(t *testing.T) {
	hdr := interp.NewRowHeader([]string{"uid", "nickname"})
	ten := &interp.RowSet{Header: hdr, Cols: []interp.RowCol{
		{Ints: []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}},
		{Strs: []string{"u0", "u1", "u2", "u3", "u4", "u5", "u6", "u7", "u8", "u9"}},
	}, N: 10}
	single := must(t)(appendReply(nil, 1, false, &query.Reply{Value: ten}))[frameHeader:]
	batch := &query.Reply{Values: make([]any, 64), Errs: make([]error, 64)}
	for i := range batch.Values {
		batch.Values[i] = &interp.RowSet{Header: hdr, Cols: ten.Cols, Sel: []int{i % 10}, N: 1}
	}
	multi := must(t)(appendReply(nil, 2, true, batch))[frameHeader:]

	var names []string
	cells := func(rep query.Reply) (out []string) {
		for _, v := range append([]any{rep.Value}, rep.Values...) {
			if rows, ok := v.(interp.Rows); ok {
				for _, row := range rows {
					out = append(out, row["nickname"].(string))
				}
			}
		}
		return out
	}
	decode := func(msgType byte, payload []byte, want int) []string {
		t.Helper()
		var rep query.Reply
		got := testing.AllocsPerRun(100, func() {
			keep := names // every run starts from the names the call held before
			var err error
			if rep, err = decodeReply(msgType, payload, &keep); err != nil {
				t.Fatal(err)
			}
		})
		var err error
		if rep, err = decodeReply(msgType, payload, &names); err != nil {
			t.Fatal(err)
		}
		strs := cells(rep)
		for i := 1; i < len(strs); i++ {
			if unsafe.Pointer(unsafe.StringData(strs[i])) != unsafe.Add(unsafe.Pointer(unsafe.StringData(strs[i-1])), len(strs[i-1])) {
				t.Fatalf("string cells %d and %d are not neighbours in one string", i-1, i)
			}
		}
		if got > float64(want) {
			t.Errorf("decoding message %d allocates %.2f objects, want at most %d", msgType, got, want)
		}
		return names
	}
	// The first reply reads the names (the slice and both strings); then the
	// rows' slab and its box as a value, ten maps of two objects, a box per
	// string cell and the one string the cells are cut from.
	first := slices.Clone(decode(MsgResult, single, 3+2+10*2+10+1))
	// The batch reuses all three names: its two slot slices, its slab, per
	// binding a box, a map and a cell's box, and one string.
	second := decode(MsgBatchResult, multi, 2+1+64*(1+2+1)+1)
	for i := range first {
		if unsafe.StringData(first[i]) != unsafe.StringData(second[i]) {
			t.Errorf("column name %q was read again", second[i])
		}
	}
}

// TestDecodeBoxedReplyAllocations pins what a 64-binding reply in boxed rows
// costs to decode, one (nickname, rating) row a binding, on a call that read
// the names before. The rows are lifted as they are written, so the reply is
// the one their lifted sets make but for the cell bytes it states: that total
// counts no boxed cell, so each string cell is a string of its own, 63 objects
// more than the typed reply's one string.
func TestDecodeBoxedReplyAllocations(t *testing.T) {
	rep := &query.Reply{Values: make([]any, 64), Errs: make([]error, 64)}
	lifted := &query.Reply{Values: make([]any, 64), Errs: make([]error, 64)}
	for i := range rep.Values {
		rows := interp.Rows{{"nickname": "user" + string(rune('A'+i%26)), "rating": int64(i % 32)}}
		rep.Values[i], lifted.Values[i] = rows, liftOf(t, rows)
	}
	payload := must(t)(appendReply(nil, 1, true, rep))[frameHeader:]
	typed := must(t)(appendReply(nil, 1, true, lifted))[frameHeader:]
	if cells, _ := binary.Uvarint(typed[8:]); !bytes.Equal(withCellBytes(payload, cells), typed) {
		t.Fatalf("boxed rows are written\n%v\nand their lifted sets\n%v", payload, typed)
	}
	var names []string
	if _, err := decodeReply(MsgBatchResult, payload, &names); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(100, func() {
		keep := names
		if _, err := decodeReply(MsgBatchResult, payload, &keep); err != nil {
			t.Fatal(err)
		}
	})
	// Two slot slices and the slab; per binding a box, a map, and the
	// string cell's box and bytes (a rating below 256 is boxed statically).
	if want := 2 + 1 + 64*(1+2+1+1); got > float64(want) {
		t.Errorf("decoding a 64-binding boxed reply allocates %.2f objects, want at most %d", got, want)
	}
}

func liftOf(t *testing.T, rows interp.Rows) *interp.RowSet {
	t.Helper()
	rs, ok := interp.LiftRows(rows)
	if !ok {
		t.Fatalf("%s does not lift", interp.Format(rows))
	}
	return rs
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
		Sel: []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, N: 10,
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
