package net

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	stdnet "net"
	"testing"
	"time"

	"repro/internal/interp"
	"repro/internal/query"
)

// twoHeaderReply is a batch reply whose first two bindings are row sets with
// the same columns in two headers, as two shards' plans hold them, the third a
// row set with as many columns of other names, the fourth the second header
// again, the fifth boxed rows with other columns and the sixth an error.
func twoHeaderReply() *query.Reply {
	cols := []interp.RowCol{{Ints: []int64{1, 2, 3}}, {Strs: []string{"a", "bc", "d"}}}
	shard0 := interp.NewRowHeader([]string{"id", "name"})
	shard1 := interp.NewRowHeader([]string{"id", "name"})
	return &query.Reply{
		Values: []any{
			&interp.RowSet{Header: shard0, Cols: cols, Sel: []int{0, 1}, N: 2},
			&interp.RowSet{Header: shard1, Cols: cols, Sel: []int{2}, N: 1},
			&interp.RowSet{Header: interp.NewRowHeader([]string{"id", "nick"}), Cols: cols, N: 1},
			&interp.RowSet{Header: shard1, Cols: cols, Sel: []int{1}, N: 1},
			interp.Rows{{"x": int64(7)}},
			nil,
		},
		Errs: []error{nil, nil, nil, nil, nil, errors.New("boom")},
	}
}

// TestBatchReplyGoldenBytes pins a Version 2 batch reply byte for byte: the
// cell bytes it states after the request id, a column list written once and
// then repeated by flag 2 across two headers, a new list for other names, the
// first list again after it, one for boxed rows, and an error slot.
func TestBatchReplyGoldenBytes(t *testing.T) {
	golden := []byte{
		0, 0, 0, 0, 0, 0, 0, 5, // request id
		7, // cell bytes: "a", "bc", "d", "a", "bc"
		6, // slots
		// binding 0: two rows; flag 1 and two columns, listed
		errNone, tagRows, 2, 1, 2, 2, 'i', 'd', 4, 'n', 'a', 'm', 'e',
		tagInt, 2, tagString, 1, 'a', // (1, "a")
		tagInt, 4, tagString, 2, 'b', 'c', // (2, "bc")
		// binding 1: one row; flag 2, the same columns, not listed
		errNone, tagRows, 1, 2,
		tagInt, 6, tagString, 1, 'd', // (3, "d")
		// binding 2: one row; flag 1, as many columns of other names
		errNone, tagRows, 1, 1, 2, 2, 'i', 'd', 4, 'n', 'i', 'c', 'k',
		tagInt, 2, tagString, 1, 'a', // (1, "a")
		// binding 3: one row; flag 1, the first columns listed again
		errNone, tagRows, 1, 1, 2, 2, 'i', 'd', 4, 'n', 'a', 'm', 'e',
		tagInt, 4, tagString, 2, 'b', 'c', // (2, "bc")
		// binding 4: one boxed row; flag 1 and one column, listed
		errNone, tagRows, 1, 1, 1, 1, 'x',
		tagInt, 14, // 7
		// binding 5: an error
		errGeneric, 4, 'b', 'o', 'o', 'm',
	}
	rep := twoHeaderReply()
	frame, err := appendReply(nil, 5, true, rep)
	if err != nil {
		t.Fatal(err)
	}
	if got := frame[frameHeader:]; !bytes.Equal(got, golden) {
		t.Fatalf("batch reply\n got %v\nwant %v", got, golden)
	}
	_, got, err := DecodeBatchResult(golden)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range rep.Values[:5] {
		want := v
		if rs, ok := v.(*interp.RowSet); ok {
			want = rs.Rows()
		}
		if !interp.Equal(got.Values[i], want) || got.Errs[i] != nil {
			t.Errorf("binding %d: %s, %v; want %s", i, interp.Format(got.Values[i]), got.Errs[i], interp.Format(want))
		}
	}
	if got.Errs[5] == nil || got.Errs[5].Error() != "boom" {
		t.Errorf("binding 5: error %v, want boom", got.Errs[5])
	}
}

// A flag 2 repeats a column list the same reply has already listed: one first
// in a reply is a malformed frame, even on a call whose previous reply listed
// columns, and so is a flag the codec does not know.
func TestRowSetFlagTwoNeedsAnEarlierList(t *testing.T) {
	oneRow := func(flag byte) []byte {
		return []byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 1, errNone, tagRows, 1, flag, tagInt, 2}
	}
	names := []string{"id"} // what the call's last reply listed
	for _, flag := range []byte{0, 2, 3} {
		if _, err := decodeReply(MsgBatchResult, oneRow(flag), &names); !errors.Is(err, ErrBadFrame) {
			t.Errorf("flag %d first in a reply decoded to %v, want ErrBadFrame", flag, err)
		}
		single := append([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0, errNone, tagRows, 1, flag}, tagInt, 2)
		if _, _, err := DecodeResult(single); !errors.Is(err, ErrBadFrame) {
			t.Errorf("flag %d in a single reply decoded to %v, want ErrBadFrame", flag, err)
		}
	}
	// The same row listed by flag 1 decodes.
	listed := []byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 1, errNone, tagRows, 1, 1, 1, 2, 'i', 'd', tagInt, 2}
	if rep, err := decodeReply(MsgBatchResult, listed, &names); err != nil || !interp.Equal(rep.Values[0], interp.Rows{{"id": int64(1)}}) {
		t.Fatalf("listed row decoded to %v, %v", rep.Values, err)
	}
}

// withCellBytes returns a reply payload stating cells string bytes in place of
// what it states.
func withCellBytes(payload []byte, cells uint64) []byte {
	_, n := binary.Uvarint(payload[8:])
	out := binary.AppendUvarint(bytes.Clone(payload[:8]), cells)
	return append(out, payload[8+n:]...)
}

// The cell bytes a reply states are a hint for the decoder's one string: none,
// the exact total, more than it, more than the payload holds, and more than a
// decoder keeps all decode to the same values.
func TestCellBytesAreOnlyAHint(t *testing.T) {
	rep := twoHeaderReply()
	frame, err := appendReply(nil, 5, true, rep)
	if err != nil {
		t.Fatal(err)
	}
	payload := frame[frameHeader:]
	if exact, _ := binary.Uvarint(payload[8:]); exact != 7 {
		t.Fatalf("reply states %d cell bytes, want 7", exact)
	}
	strs := must(t)(EncodeBatchResult(1, query.BatchResult{Values: []any{"ab", int64(1), "cde"}, Errs: make([]error, 3)}))
	if exact, _ := binary.Uvarint(strs[8:]); exact != 5 {
		t.Errorf("a reply of string values states %d cell bytes, want 5", exact)
	}
	_, want, err := DecodeBatchResult(payload)
	if err != nil {
		t.Fatal(err)
	}
	for _, cells := range []uint64{0, 1, 7, 8, uint64(len(payload)) + 1000, maxRetained + 1, 1 << 62} {
		r := &reader{b: withCellBytes(payload, cells)}
		_, rep := r.reply(true)
		got, err := query.BatchResult{Values: rep.Values, Errs: rep.Errs}, r.err
		if err != nil {
			t.Fatalf("stating %d cell bytes: %v", cells, err)
		}
		// The room is never more than the payload holds (rounded up to the
		// allocator's size class).
		if room := r.cells.Cap(); room > 2*len(payload) {
			t.Errorf("stating %d cell bytes: room for %d in a %d-byte payload", cells, room, len(payload))
		}
		for i := range want.Values {
			if !interp.Equal(got.Values[i], want.Values[i]) || (got.Errs[i] == nil) != (want.Errs[i] == nil) {
				t.Errorf("stating %d cell bytes, binding %d: %s, %v; want %s, %v", cells, i,
					interp.Format(got.Values[i]), got.Errs[i], interp.Format(want.Values[i]), want.Errs[i])
			}
		}
	}
}

// A row set's cells are ints and strings (Version 3): rows with a row set in
// a cell are not encoded, and a reply that nests one, or a cell of any other
// tag, is a malformed frame. Row sets side by side in a list each read their
// own column list, and a later one repeats the last.
func TestNestedRowSetsAreRefused(t *testing.T) {
	inner := func(k string, v int64) interp.Rows { return interp.Rows{{k: v}} }
	for _, v := range []any{
		interp.Rows{{"a": inner("b", 1)}, {"a": inner("b", 2)}},
		interp.NewList(interp.Rows{{"a": inner("a", 1), "c": "s"}}),
	} {
		if b, err := AppendValue(nil, v); err == nil {
			t.Errorf("%s was encoded: %x", interp.Format(v), b)
		}
	}
	// One row of one column "a", whose cell is the given value.
	for _, cell := range [][]byte{{tagRows, 1, 1, 1, 1, 'b', tagInt, 2}, {tagNil}, {tagBool, 1}, {tagList, 0}, {tagRow, 0}} {
		single := append([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0, errNone, tagRows, 1, 1, 1, 1, 'a'}, cell...)
		if _, _, err := DecodeResult(single); !errors.Is(err, ErrBadFrame) {
			t.Errorf("a row set cell %v decoded to %v, want ErrBadFrame", cell, err)
		}
	}
	v := interp.NewList(interp.Rows{{"a": int64(1)}}, interp.Rows{{"b": int64(2)}, {"b": int64(3)}}, interp.Rows{{"b": int64(4)}})
	if got := roundTripValue(t, v); !interp.Equal(got, v) {
		t.Errorf("round trip changed value: %s -> %s", interp.Format(v), interp.Format(got))
	}
}

// A peer of an earlier protocol version is refused at the handshake, in both
// directions: the server closes on its hello, and a client answered by such a
// server fails with ErrVersionMismatch.
func TestOlderPeerIsRefused(t *testing.T) {
	for _, version := range []uint16{1, 2} {
		t.Run(fmt.Sprint("version ", version), func(t *testing.T) { refusesPeer(t, version) })
	}
}

func refusesPeer(t *testing.T, version uint16) {
	s := startServer(t, echoBackend(), ServerOptions{})
	conn, err := stdnet.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := EncodeHello()
	binary.BigEndian.PutUint16(hello[4:6], version)
	if err := WriteFrame(conn, MsgHello, hello); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, err := readFrame(conn, nil); err == nil {
		t.Fatalf("server answered a version %d hello", version)
	}

	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		if _, _, err := readFrame(c, nil); err == nil {
			WriteFrame(c, MsgHelloAck, binary.BigEndian.AppendUint16(nil, version))
		}
	}()
	if c, err := Dial(ln.Addr().String()); !errors.Is(err, ErrVersionMismatch) {
		if c != nil {
			c.Close()
		}
		t.Fatalf("dialling a version %d server: %v, want ErrVersionMismatch", version, err)
	}
}
