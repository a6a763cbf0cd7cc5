package net

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/interp"
	"repro/internal/query"
)

// roundTripValue encodes v and decodes it back.
func roundTripValue(t *testing.T, v any) any {
	t.Helper()
	b, err := AppendValue(nil, v)
	if err != nil {
		t.Fatalf("encode %v: %v", v, err)
	}
	r := &reader{b: b}
	out := r.value()
	if r.err != nil {
		t.Fatalf("decode %v: %v", v, r.err)
	}
	if len(r.b) != 0 {
		t.Fatalf("decode %v: %d trailing bytes", v, len(r.b))
	}
	return out
}

func TestValueRoundTrip(t *testing.T) {
	cases := []any{
		nil,
		int64(0), int64(-1), int64(42), int64(math.MaxInt64), int64(math.MinInt64),
		"", "hello", "naïve — utf8 ✓",
		true, false,
		interp.NewList(),
		interp.NewList(int64(1), "two", true, nil, interp.NewList(int64(3))),
		interp.Row{},
		interp.Row{"id": int64(7), "name": "x"},
		interp.Rows{},
		// rows of typed columns: the only rows the wire carries
		interp.Rows{
			{"id": int64(1), "name": "a"},
			{"id": int64(2), "name": "b"},
			{"id": int64(3), "name": "c"},
		},
	}
	for _, v := range cases {
		got := roundTripValue(t, v)
		if !interp.Equal(got, v) {
			t.Errorf("round trip changed value: %s -> %s",
				interp.Format(v), interp.Format(got))
		}
	}
	for _, v := range untypedRows {
		if b, err := AppendValue(nil, v); err == nil {
			t.Errorf("rows that are not typed columns were encoded: %s -> %x", interp.Format(v), b)
		}
	}
}

// untypedRows are rows that do not lift to typed columns, which the wire
// refuses: heterogeneous rows, rows of no columns (a count of them the
// decoder would take for more rows than the bytes left can hold), a null
// cell, a column of two types, and a cell that is neither an int nor a
// string.
var untypedRows = []any{
	interp.Rows{{"id": int64(1)}, {"id": int64(2), "extra": "y"}},
	interp.Rows{{"id": int64(1)}, {"other": int64(2)}},
	interp.Rows{{}, {"id": int64(1)}},
	interp.Rows{{}, {}, {}, {}, {}},
	interp.Rows{{"id": int64(1), "name": nil}},
	interp.Rows{{"id": int64(1)}, {"id": "two"}},
	interp.Rows{{"id": true}},
	interp.NewList(interp.Rows{{"id": interp.NewList()}}),
}

// Boxed rows are lifted into pooled row sets on their way to the wire:
// encoders on several goroutines at once, of rows with differing columns,
// each write their own rows.
func TestConcurrentLiftsAreIndependent(t *testing.T) {
	values := []any{
		interp.Rows{{"a": int64(1), "b": "x"}},
		interp.Rows{{"c": "y"}, {"c": "z"}},
		interp.Rows{{"a": int64(2), "b": "w"}, {"a": int64(3), "b": "v"}},
		interp.Rows{{"a": "s", "b": int64(4)}},
	}
	want := make([][]byte, len(values))
	for i, v := range values {
		want[i] = must(t)(AppendValue(nil, v))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (g + i) % len(values)
				if got, err := AppendValue(nil, values[k]); err != nil || !bytes.Equal(got, want[k]) {
					t.Errorf("%s encoded as %x (%v), want %x", interp.Format(values[k]), got, err, want[k])
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestRowsColumnarEncodingIsCompact(t *testing.T) {
	// 100 rows pay one copy of the column names, not 100.
	rows := make(interp.Rows, 100)
	for i := range rows {
		rows[i] = interp.Row{"somewhat_long_column_name": int64(i), "another_column_name": "v"}
	}
	columnar, err := AppendValue(nil, rows)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"somewhat_long_column_name", "another_column_name"} {
		if n := bytes.Count(columnar, []byte(name)); n != 1 {
			t.Errorf("column %q is written %d times in %d rows", name, n, len(rows))
		}
	}
	// One row of other columns leaves no form to write the rows in.
	hetero := slices.Clone(rows)
	hetero[50] = interp.Row{"different": int64(1)}
	if b, err := AppendValue(nil, hetero); err == nil {
		t.Fatalf("heterogeneous rows were encoded in %d bytes", len(b))
	}
}

func TestExecRoundTrip(t *testing.T) {
	req := query.Req("q1", "select * from t where id = ?", []any{int64(5), "x"})
	req.Deadline = query.FromUnixNanos(1234567890)
	payload, err := EncodeExec(99, req)
	if err != nil {
		t.Fatal(err)
	}
	id, got, err := DecodeExec(payload)
	if err != nil {
		t.Fatal(err)
	}
	if id != 99 || got.Name != req.Name || got.SQL != req.SQL ||
		got.Deadline.UnixNanos() != req.Deadline.UnixNanos() {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Args) != 2 || !interp.Equal(got.Args[0], int64(5)) || !interp.Equal(got.Args[1], "x") {
		t.Fatalf("args mismatch: %v", got.Args)
	}
}

// decodeOne decodes one request payload into a call of its own.
func decodeOne(msgType byte, b []byte, last *stmtNames) (uint64, query.Call, error) {
	var c query.Call
	id, err := decodeCall(msgType, b, last, nil, &c)
	return id, c, err
}

// decodeExecBatch decodes one MsgExecBatch payload onto a list of its own.
func decodeExecBatch(b []byte, last *stmtNames) (uint64, query.BatchRequest, error) {
	id, c, err := decodeOne(MsgExecBatch, b, last)
	return id, query.BatchRequest{Name: c.Name, SQL: c.SQL, ArgSets: c.ArgSets, Deadline: c.Deadline}, err
}

func TestExecBatchRoundTrip(t *testing.T) {
	req := query.BatchReq("b", "insert into t values (?)", [][]any{{int64(1)}, {int64(2)}, {}})
	payload, err := EncodeExecBatch(7, req)
	if err != nil {
		t.Fatal(err)
	}
	id, got, err := decodeExecBatch(payload, &stmtNames{})
	if err != nil {
		t.Fatal(err)
	}
	if id != 7 || got.Name != "b" || len(got.ArgSets) != 3 {
		t.Fatalf("mismatch: %+v", got)
	}
	if !got.Deadline.IsZero() {
		t.Fatalf("zero deadline did not survive: %v", got.Deadline)
	}
}

func TestResultErrorCodes(t *testing.T) {
	cases := []struct {
		in   error
		want error // sentinel surviving errors.Is, or nil for text equality
	}{
		{query.ErrOverloaded, query.ErrOverloaded},
		{query.ErrDeadlineExceeded, query.ErrDeadlineExceeded},
		{errors.New("table missing: users"), nil},
	}
	for _, c := range cases {
		payload, err := EncodeResult(1, query.Fail(c.in))
		if err != nil {
			t.Fatal(err)
		}
		_, res, err := DecodeResult(payload)
		if err != nil {
			t.Fatal(err)
		}
		if c.want != nil {
			if !errors.Is(res.Err, c.want) {
				t.Errorf("sentinel %v lost identity: got %v", c.in, res.Err)
			}
		} else if res.Err == nil || res.Err.Error() != c.in.Error() {
			t.Errorf("error text changed: %q -> %v", c.in, res.Err)
		}
	}
}

func TestBatchResultRoundTrip(t *testing.T) {
	res := query.BatchResult{
		Values: []any{int64(10), nil, nil},
		Errs:   []error{nil, errors.New("boom"), query.ErrOverloaded},
	}
	payload, err := EncodeBatchResult(3, res)
	if err != nil {
		t.Fatal(err)
	}
	id, got, err := DecodeBatchResult(payload)
	if err != nil {
		t.Fatal(err)
	}
	if id != 3 || len(got.Values) != 3 {
		t.Fatalf("mismatch: %+v", got)
	}
	if !interp.Equal(got.Values[0], int64(10)) || got.Errs[0] != nil {
		t.Errorf("member 0: %v %v", got.Values[0], got.Errs[0])
	}
	if got.Errs[1] == nil || got.Errs[1].Error() != "boom" {
		t.Errorf("member 1: %v", got.Errs[1])
	}
	if !errors.Is(got.Errs[2], query.ErrOverloaded) {
		t.Errorf("member 2: %v", got.Errs[2])
	}
}

// The decoder reuses, within one reply, the column names a row set repeats and
// carves the row sets from shared storage. Neither may show in the values:
// row sets of differing columns and lengths, an empty one and an error in
// between, come back as they were sent, each with exactly its own rows.
func TestBatchResultRowSetsAreIndependent(t *testing.T) {
	ab := func(i int) interp.Row { return interp.Row{"a": int64(i), "b": "s"} }
	res := query.BatchResult{
		Values: []any{
			interp.Rows{ab(1), ab(2)},
			interp.Rows{ab(3)},
			interp.Rows{{"a": int64(4), "c": "other name"}},
			nil,
			interp.Rows{},
			interp.Rows{ab(5), ab(6), ab(7), ab(8), ab(9)}, // outgrows the first slab
			interp.Rows{{"z": "one column"}},
			interp.Rows{{"b": int64(1)}, {"b": int64(2)}},
			interp.Rows{ab(10)},
			&interp.List{Items: []any{"x", true, interp.Row{"k": "v"}, &interp.List{Items: []any{"y"}}}},
		},
		Errs: make([]error, 10),
	}
	res.Errs[3] = errors.New("boom")
	payload, err := EncodeBatchResult(1, res)
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := DecodeBatchResult(payload)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range res.Values {
		if !interp.Equal(got.Values[i], want) {
			t.Errorf("binding %d: %s, want %s", i, interp.Format(got.Values[i]), interp.Format(want))
		}
		// Appending to one binding's rows must not reach into the next one's.
		if rows, ok := got.Values[i].(interp.Rows); ok && cap(rows) != len(rows) {
			t.Errorf("binding %d: %d rows with room for %d", i, len(rows), cap(rows))
		}
	}
	if got.Errs[3] == nil || got.Errs[3].Error() != "boom" {
		t.Errorf("binding 3: error %v, want boom", got.Errs[3])
	}
	// A binding of rows that are not typed columns fails the whole reply's
	// encoding (the door answers every binding with that error instead).
	for _, v := range untypedRows {
		values := append(slices.Clone(res.Values[:3]), v)
		if _, err := EncodeBatchResult(1, query.BatchResult{Values: values, Errs: make([]error, 4)}); err == nil {
			t.Errorf("a batch reply with a binding of %s was encoded", interp.Format(v))
		}
	}
}

// A reply's string cells are cut from one string only while they hold at most
// maxRetained bytes between them; past that each cell is a string of its own,
// so keeping one cell does not keep the whole reply. Two cells of
// maxRetained/2 bytes share one allocation, and one byte more each takes two:
// the decode costs exactly one more object. (Where two separately allocated
// strings land says nothing: the allocator may place them side by side.)
func TestLargeReplyCellsAreApart(t *testing.T) {
	var allocs [2]float64
	for i, size := range []int{maxRetained / 2, maxRetained/2 + 1} {
		a, b := strings.Repeat("a", size), strings.Repeat("b", size)
		payload, err := EncodeBatchResult(1, query.BatchResult{Values: []any{a, b}, Errs: make([]error, 2)})
		if err != nil {
			t.Fatal(err)
		}
		allocs[i] = testing.AllocsPerRun(20, func() {
			_, got, err := DecodeBatchResult(payload)
			if err != nil || got.Values[0] != a || got.Values[1] != b {
				t.Fatalf("%d-byte cells decoded wrong (%v)", size, err)
			}
		})
	}
	if allocs[1] != allocs[0]+1 {
		t.Errorf("two cells of %d bytes decode in %.1f objects and of %d bytes in %.1f, want exactly one more",
			maxRetained/2, allocs[0], maxRetained/2+1, allocs[1])
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgExec, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	msgType, payload, err := readFrame(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if msgType != MsgExec || string(payload) != "payload" {
		t.Fatalf("got type %d payload %q", msgType, payload)
	}
}

func TestHandshakeCodec(t *testing.T) {
	v, err := DecodeHello(EncodeHello())
	if err != nil || v != Version {
		t.Fatalf("hello: %d %v", v, err)
	}
	v, err = DecodeHelloAck(EncodeHelloAck())
	if err != nil || v != Version {
		t.Fatalf("helloAck: %d %v", v, err)
	}
	if _, err := DecodeHello([]byte("not a hello")); err == nil {
		t.Fatal("garbage hello accepted")
	}
}

// reservedAt is the offset of a request payload's reserved header byte: after
// the 8-byte request id and the varint deadline.
func reservedAt(payload []byte) int {
	_, n := binary.Varint(payload[8:])
	return 8 + n
}

// The request header carries a reserved byte: encoders write 0, and a request
// of either kind whose reserved byte is anything else is a malformed frame.
func TestReservedHeaderByteMustBeZero(t *testing.T) {
	dl := query.FromUnixNanos(1234567890) // a multi-byte varint before the byte
	exec, err := EncodeExec(7, query.Req("q", "select 1", []any{int64(1)}).WithDeadline(dl))
	if err != nil {
		t.Fatal(err)
	}
	batch, err := EncodeExecBatch(8, query.BatchRequest{Name: "b", SQL: "select 1", ArgSets: [][]any{{int64(1)}}, Deadline: dl})
	if err != nil {
		t.Fatal(err)
	}
	decode := map[string]func([]byte) error{
		"exec":  func(p []byte) error { _, _, err := DecodeExec(p); return err },
		"batch": func(p []byte) error { _, _, err := decodeExecBatch(p, &stmtNames{}); return err },
	}
	for name, payload := range map[string][]byte{"exec": exec, "batch": batch} {
		at := reservedAt(payload)
		if payload[at] != 0 {
			t.Fatalf("%s: encoder wrote reserved byte %d", name, payload[at])
		}
		if err := decode[name](payload); err != nil {
			t.Fatalf("%s: intact payload rejected: %v", name, err)
		}
		for _, c := range []byte{1, 3, 0xff} {
			bad := bytes.Clone(payload)
			bad[at] = c
			if err := decode[name](bad); !errors.Is(err, ErrBadFrame) {
				t.Fatalf("%s: reserved byte %d decoded to %v, want ErrBadFrame", name, c, err)
			}
		}
	}
}

// FuzzFrameRoundTrip throws arbitrary bytes at the frame reader and — when
// they happen to parse as a request — re-encodes the decoded request,
// checking the decoder never panics, never over-reads, that
// decode(encode(decode(x))) is stable, and that every request it accepts had,
// and re-encodes with, a zero reserved byte.
func FuzzFrameRoundTrip(f *testing.F) {
	seedReq, _ := EncodeExec(1, query.Req("q", "select 1", []any{int64(1), "s", true, nil}))
	f.Add(MsgExec, seedReq)
	rows := interp.Rows{{"a": int64(1)}, {"a": int64(2)}}
	seedRes, _ := EncodeResult(2, query.Ok(rows))
	f.Add(MsgResult, seedRes)
	seedBatch, _ := EncodeExecBatch(3, query.BatchReq("b", "q", [][]any{{int64(1)}, {"x"}}))
	f.Add(MsgExecBatch, seedBatch)
	seedBR, _ := EncodeBatchResult(4, query.BatchResult{
		Values: []any{nil, int64(9)}, Errs: []error{query.ErrDeadlineExceeded, nil}})
	f.Add(MsgBatchResult, seedBR)
	// Version 2: bindings whose row sets share columns (flag 2), and a reply
	// that states more cell bytes than it holds.
	shared, _ := EncodeBatchResult(5, query.BatchResult{
		Values: []any{rows, interp.Rows{{"a": int64(3)}}, interp.Rows{{"a": "s"}}}, Errs: make([]error, 3)})
	f.Add(MsgBatchResult, shared)
	f.Add(MsgBatchResult, withCellBytes(shared, 1000))
	f.Add(byte(200), []byte{0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, msgType byte, payload []byte) {
		// The frame layer itself must round-trip any (type, payload).
		var buf bytes.Buffer
		if err := WriteFrame(&buf, msgType, payload); err != nil {
			t.Skip() // oversized
		}
		gotType, gotPayload, err := readFrame(&buf, nil)
		if err != nil {
			t.Fatalf("own frame unreadable: %v", err)
		}
		if gotType != msgType || !bytes.Equal(gotPayload, payload) {
			t.Fatalf("frame changed in transit")
		}

		// Message decoders must reject or round-trip — never panic.
		switch msgType {
		case MsgExec:
			id, req, err := DecodeExec(payload)
			if err != nil {
				return
			}
			re, err := EncodeExec(id, req)
			if err != nil {
				return // decoded args may contain an unencodable nil map? (they cannot; but be lenient)
			}
			if payload[reservedAt(payload)] != 0 || re[reservedAt(re)] != 0 {
				t.Fatalf("accepted reserved byte %d, re-encoded %d", payload[reservedAt(payload)], re[reservedAt(re)])
			}
			id2, req2, err := DecodeExec(re)
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if id2 != id || req2.Name != req.Name || req2.SQL != req.SQL ||
				len(req2.Args) != len(req.Args) {
				t.Fatalf("unstable round trip: %+v vs %+v", req, req2)
			}
		case MsgExecBatch:
			id, req, err := decodeExecBatch(payload, &stmtNames{})
			if err != nil {
				return
			}
			re, err := EncodeExecBatch(id, req)
			if err != nil {
				return
			}
			if payload[reservedAt(payload)] != 0 || re[reservedAt(re)] != 0 {
				t.Fatalf("accepted reserved byte %d, re-encoded %d", payload[reservedAt(payload)], re[reservedAt(re)])
			}
			if _, req2, err := decodeExecBatch(re, &stmtNames{}); err != nil || len(req2.ArgSets) != len(req.ArgSets) {
				t.Fatalf("unstable batch round trip: %v", err)
			}
		case MsgResult:
			id, res, err := DecodeResult(payload)
			if err != nil {
				return
			}
			re, err := EncodeResult(id, res)
			if err != nil {
				return
			}
			if _, res2, err := DecodeResult(re); err != nil || !interp.Equal(res2.Value, res.Value) {
				t.Fatalf("unstable result round trip: %v", err)
			}
		case MsgBatchResult:
			id, res, err := DecodeBatchResult(payload)
			if err != nil {
				return
			}
			re, err := EncodeBatchResult(id, res)
			if err != nil {
				return
			}
			if _, res2, err := DecodeBatchResult(re); err != nil || len(res2.Errs) != len(res.Errs) {
				t.Fatalf("unstable batch result round trip: %v", err)
			}
		}
	})
}
