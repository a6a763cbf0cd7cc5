// Package net is the network front door: a length-prefixed binary wire
// protocol over TCP that carries the internal/query Request/Result pairs
// between a client process and a server process. The client side
// (Client) implements query.Executor, so a transformed program moves from
// an in-process stack to a remote one by swapping the Executor it hands
// to the runtime — exactly the portability argument the Request redesign
// was made for. The server side (Server) fronts any query.Executor —
// a bare server.Server, a shard.Router, a replica.Group, or the whole
// stack — with per-request deadlines and admission control that sheds load
// with query.ErrOverloaded instead of queueing without bound.
//
// See README.md for the frame format, versioning and the deadline /
// overload semantics the protocol promises.
package net

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"

	"repro/internal/interp"
	"repro/internal/query"
)

// Protocol constants. Version bumps whenever the frame or value encoding
// changes incompatibly; the handshake rejects mismatches up front so a
// stale client fails with a clear error instead of a mid-stream decode
// error.
const (
	// Magic opens every hello frame: "ASQW" (asynchronous query wire).
	Magic uint32 = 0x41535157
	// Version is the protocol version this build speaks. Version 2: a reply
	// states its string cells' bytes after the request id, and a row set that
	// repeats the reply's previous column list does not list it again.
	// Version 3: a row set's cells are ints and strings only, and there is no
	// row-major form.
	Version uint16 = 3
	// MaxFrame bounds a single frame's payload. Large result sets are the
	// legitimate case (a full-scan read returns its rows in one frame);
	// anything beyond this is a corrupt length prefix, and rejecting it
	// keeps a bad frame from making the reader allocate gigabytes.
	MaxFrame = 64 << 20
)

// Frame types.
const (
	// MsgHello / MsgHelloAck are the versioned handshake: the client sends
	// hello (magic + its version), the server answers helloAck (its
	// version) or closes the connection.
	MsgHello byte = iota + 1
	MsgHelloAck
	// MsgExec / MsgExecBatch carry one Request / BatchRequest.
	MsgExec
	MsgExecBatch
	// MsgResult / MsgBatchResult carry the matching responses.
	MsgResult
	MsgBatchResult
)

// Error codes on result frames. Sentinel errors cross the wire as codes —
// not text — so errors.Is works on the client side; every other error is
// carried as its exact text, which keeps remote error output byte-identical
// to in-process runs.
const (
	errNone byte = iota
	errGeneric
	errOverloaded
	errDeadline
	errConnLost
)

// Value tags. The mini-language's runtime values are closed (nil, int64,
// string, bool, lists, rows), so the codec enumerates them instead of
// shipping a reflective encoding.
const (
	tagNil byte = iota
	tagInt
	tagString
	tagBool
	tagList
	tagRow
	tagRows
)

// ErrBadFrame reports a malformed or oversized frame.
var ErrBadFrame = errors.New("net: malformed frame")

// ErrVersionMismatch reports a failed handshake.
var ErrVersionMismatch = errors.New("net: protocol version mismatch")

// --- primitive encoders on a byte buffer ---

func putUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func putVarint(b []byte, v int64) []byte   { return binary.AppendVarint(b, v) }

func putString(b []byte, s string) []byte {
	b = putUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func putBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// reader decodes primitives off a payload slice with a sticky error, so
// message decoders read fields linearly and check once at the end.
type reader struct {
	b   []byte
	err error

	// What the results of one reply repeat: the last column names decoded
	// (see columns; a client's call keeps them across replies) and whether
	// this reply listed them; the storage its row sets are carved from (see
	// rowSlab), sized for the results still to come; the one string its cells
	// are cut from (see reply).
	keys   []string
	listed bool
	slab   interp.Rows
	left   int
	cells  strings.Builder

	// The storage a batch request's bindings are carved from (see args).
	argSlab []any
}

func (r *reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated %s", ErrBadFrame, what)
	}
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail("varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *reader) string() string {
	var s string
	r.stringInto(&s)
	return s
}

// bytes reads a length-prefixed string as a view of the payload (nil on a
// truncated one).
func (r *reader) bytes() []byte {
	n := r.uvarint()
	if r.err == nil && uint64(len(r.b)) < n {
		r.fail("string")
	}
	if r.err != nil {
		return nil
	}
	b := r.b[:n]
	r.b = r.b[n:]
	return b
}

// stringInto reads a string into *last, which it leaves as it is when the
// bytes on the wire equal it: a value the stream repeats is allocated once.
// What *last holds is always a copy, never a view of the payload.
func (r *reader) stringInto(last *string) {
	if b := r.bytes(); string(b) != *last {
		*last = string(b)
	}
}

// cell reads a string value: a substring of the reply's one cell string while
// the room reply made in it lasts, else a copy of its own.
func (r *reader) cell() string {
	b := r.bytes()
	if lo := r.cells.Len(); lo+len(b) <= r.cells.Cap() {
		r.cells.Write(b)
		return r.cells.String()[lo:]
	}
	return string(b)
}

func (r *reader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) == 0 {
		r.fail("byte")
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *reader) bool() bool { return r.byte() != 0 }

func (r *reader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.fail("u64")
		return 0
	}
	v := binary.BigEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

// count reads a collection length and sanity-bounds it against the bytes
// that remain: each element costs at least one byte on the wire, so a
// length beyond len(r.b) is a corrupt frame, not a huge allocation.
func (r *reader) count(what string) int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.b)) {
		r.fail(what + " count")
		return 0
	}
	return int(n)
}

// --- value codec ---

// AppendValue encodes one runtime value. The value domain is the
// mini-language's: nil, int64, string, bool, *interp.List, interp.Row,
// interp.Rows — and *interp.RowSet, the columnar form a row result has inside
// the server process, whose bytes are those of its boxed interp.Rows. Anything
// else is an encoding error — the front door refuses to silently stringify a
// value the other side could not reconstruct — and so are rows that do not
// lift to typed columns (interp.LiftRows).
func AppendValue(b []byte, v any) ([]byte, error) {
	var e encoder
	return e.value(b, v)
}

// encoder writes the values of one message. What they share is the column
// list of the last row set written: a row set whose list reads the same does
// not list it again (see columns).
type encoder struct {
	last *interp.RowHeader // nil until a row set lists its columns
}

func (e *encoder) value(b []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(b, tagNil), nil
	case int64:
		return putVarint(append(b, tagInt), x), nil
	case string:
		return putString(append(b, tagString), x), nil
	case bool:
		return putBool(append(b, tagBool), x), nil
	case *interp.List:
		b = putUvarint(append(b, tagList), uint64(len(x.Items)))
		var err error
		for _, it := range x.Items {
			if b, err = e.value(b, it); err != nil {
				return nil, err
			}
		}
		return b, nil
	case interp.Row:
		return e.row(append(b, tagRow), x)
	case interp.Rows:
		return e.lifted(append(b, tagRows), x)
	case *interp.RowSet:
		return e.rowSet(append(b, tagRows), x), nil
	default:
		return nil, fmt.Errorf("net: cannot encode %T", v)
	}
}

// row writes a row as sorted (key, value) pairs — sorted so the encoding is
// deterministic, matching the deterministic Format order the differential
// harness compares.
func (e *encoder) row(b []byte, row interp.Row) ([]byte, error) {
	keys := slices.Sorted(maps.Keys(row))
	b = putUvarint(b, uint64(len(keys)))
	var err error
	for _, k := range keys {
		b = putString(b, k)
		if b, err = e.value(b, row[k]); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// lifts holds the row sets boxed rows are lifted into on their way to the
// wire, so a backend that answers in interp.Rows (it is not a query.Doer)
// costs the encoder no allocation while its results keep their shape.
var lifts = sync.Pool{New: func() any { return new(interp.RowSet) }}

// lifted writes boxed rows as the row set they lift to: what a typed backend
// answering the same rows writes. Rows that do not lift are not encoded.
func (e *encoder) lifted(b []byte, rows interp.Rows) ([]byte, error) {
	rs := lifts.Get().(*interp.RowSet)
	defer lifts.Put(rs)
	if !rs.Lift(rows) {
		return nil, errors.New("net: cannot encode rows whose columns differ or are not all ints or all strings")
	}
	return e.rowSet(b, rs), nil
}

// rowSet writes a row result: its count, its column list (see columns) in the
// header's precomputed name order, then its cells row by row, straight from
// the typed vectors through the selection — for a select, the table's own
// vectors: this is the one copy a cell makes.
func (e *encoder) rowSet(b []byte, rs *interp.RowSet) []byte {
	b = putUvarint(b, uint64(rs.N))
	if rs.N == 0 {
		return b
	}
	wire := rs.Header.Wire
	b = e.columns(b, rs.Header)
	for j := 0; j < rs.N; j++ {
		i := rs.At(j)
		for _, k := range wire {
			if c := &rs.Cols[k]; c.Ints != nil {
				b = putVarint(append(b, tagInt), c.Ints[i])
			} else {
				b = putString(append(b, tagString), c.Strs[i])
			}
		}
	}
	return b
}

// columns writes a row set's flag and column list: flag 1 and the list, or
// flag 2 alone when the list reads the same as the last one this message
// wrote. Two shards' results carry equal lists in different headers, so the
// lists are compared by name.
func (e *encoder) columns(b []byte, h *interp.RowHeader) []byte {
	same := e.last != nil && len(e.last.Wire) == len(h.Wire)
	for i := 0; same && e.last != h && i < len(h.Wire); i++ {
		same = h.Names[h.Wire[i]] == e.last.Names[e.last.Wire[i]]
	}
	if same {
		return append(b, 2)
	}
	e.last = h
	b = putUvarint(append(b, 1), uint64(len(h.Wire)))
	for _, k := range h.Wire {
		b = putString(b, h.Names[k])
	}
	return b
}

func (r *reader) value() any {
	switch tag := r.byte(); tag {
	case tagNil:
		return nil
	case tagInt:
		return r.varint()
	case tagString:
		return r.cell()
	case tagBool:
		return r.bool()
	case tagList:
		n := r.count("list")
		items := make([]any, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			items = append(items, r.value())
		}
		return &interp.List{Items: items}
	case tagRow:
		return r.row()
	case tagRows:
		return r.rows()
	default:
		if r.err == nil {
			r.err = fmt.Errorf("%w: unknown value tag %d", ErrBadFrame, tag)
		}
		return nil
	}
}

func (r *reader) row() interp.Row {
	n := r.count("row")
	row := make(interp.Row, n)
	for i := 0; i < n && r.err == nil; i++ {
		k := r.string()
		row[k] = r.value()
	}
	return row
}

func (r *reader) rows() interp.Rows {
	n := r.count("rows")
	if n == 0 {
		return interp.Rows{}
	}
	rows := r.rowSlab(n)
	keys := r.columns(r.byte())
	for i := 0; i < n && r.err == nil; i++ {
		row := make(interp.Row, len(keys))
		for _, k := range keys {
			row[k] = r.typedCell()
		}
		rows = append(rows, row)
	}
	return rows
}

// typedCell reads a row set's cell, an int or a string.
func (r *reader) typedCell() any {
	switch tag := r.byte(); {
	case tag == tagInt:
		return r.varint()
	case tag != tagString && r.err == nil:
		r.err = fmt.Errorf("%w: row set cell tag %d", ErrBadFrame, tag)
	}
	return r.cell()
}

// columns reads a row set's column names after its flag: 1 lists them, at
// least one (rows without columns do not lift, so no encoder writes them), 2
// repeats the reply's last list, which is an error before the reply has listed
// one. The bindings of a batch reply carry the same names one after the other,
// and a client's next reply on the same call usually does too, so the slice
// and every name that reads the same as last time are reused. No result holds
// the slice (a row map holds the strings, which do not change).
func (r *reader) columns(flag byte) []string {
	if flag == 2 && r.listed {
		return r.keys
	}
	if flag != 1 {
		if r.err == nil {
			r.err = fmt.Errorf("%w: row set flag %d", ErrBadFrame, flag)
		}
		return nil
	}
	nk := r.count("columns")
	if nk == 0 && r.err == nil {
		r.err = fmt.Errorf("%w: row set with no columns", ErrBadFrame)
	}
	if nk != len(r.keys) {
		r.keys = make([]string, nk)
	}
	for i := range r.keys {
		r.stringInto(&r.keys[i])
	}
	r.listed = true
	return r.keys
}

// rowSlab returns an empty row set with room for n rows, carved from storage
// the reply's row sets share. A new slab is sized for the results the reply
// still has to deliver (left, this one included) if they are all like this
// one, but not beyond what the bytes that remain could hold.
func (r *reader) rowSlab(n int) interp.Rows {
	if cap(r.slab)-len(r.slab) < n {
		r.slab = make(interp.Rows, 0, max(n, min(n*r.left, len(r.b))))
	}
	lo := len(r.slab)
	r.slab = r.slab[:lo+n]
	return r.slab[lo : lo : lo+n]
}

// --- request / response codecs ---

// EncodeHello builds the client's opening frame payload.
func EncodeHello() []byte {
	b := make([]byte, 0, 6)
	b = binary.BigEndian.AppendUint32(b, Magic)
	return binary.BigEndian.AppendUint16(b, Version)
}

// DecodeHello validates a hello payload and returns the peer version.
func DecodeHello(b []byte) (uint16, error) {
	if len(b) != 6 || binary.BigEndian.Uint32(b[:4]) != Magic {
		return 0, fmt.Errorf("%w: bad hello", ErrBadFrame)
	}
	return binary.BigEndian.Uint16(b[4:6]), nil
}

// EncodeHelloAck builds the server's handshake answer.
func EncodeHelloAck() []byte {
	return binary.BigEndian.AppendUint16(nil, Version)
}

// DecodeHelloAck returns the server's version.
func DecodeHelloAck(b []byte) (uint16, error) {
	if len(b) != 2 {
		return 0, fmt.Errorf("%w: bad helloAck", ErrBadFrame)
	}
	return binary.BigEndian.Uint16(b), nil
}

// appendHeader starts a request payload with what both request kinds share:
// the request id, then deadline, a reserved byte (always 0), name and
// statement. The span does not cross the wire: tracing is per-process. The
// deadline crosses as an absolute unix-nanosecond instant (0 = none), so it
// keeps meaning regardless of queueing on either side.
func appendHeader(b []byte, reqID uint64, dl query.Deadline, name, sql string) []byte {
	b = binary.BigEndian.AppendUint64(b, reqID)
	b = putVarint(b, dl.UnixNanos())
	b = append(b, 0)
	b = putString(b, name)
	return putString(b, sql)
}

// appendArgs writes one binding: a count, then the values.
func appendArgs(b []byte, args []any) ([]byte, error) {
	b = putUvarint(b, uint64(len(args)))
	var err error
	for _, a := range args {
		if b, err = AppendValue(b, a); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// stmtNames is the statement name and text of the last request a connection's
// read loop decoded. A client sends the same few statements over and over, so
// a request that repeats the last one reuses its strings.
type stmtNames struct{ name, sql string }

// header reads what appendHeader wrote into req, through last, and returns
// the request id. A non-zero reserved byte is a malformed frame.
func (r *reader) header(last *stmtNames, req *query.Request) uint64 {
	id := r.u64()
	req.Deadline = query.FromUnixNanos(r.varint())
	if c := r.byte(); c != 0 {
		r.err = fmt.Errorf("%w: reserved header byte %d", ErrBadFrame, c)
	}
	r.stringInto(&last.name)
	r.stringInto(&last.sql)
	req.Name, req.SQL = last.name, last.sql
	return id
}

// args reads one binding (nil when empty) into a capacity-limited window of
// one slab, as interp's machine.carve carves submission arguments: a new slab
// is sized for the bindings still to come (left, this one included) if they
// are all like this one, but not beyond what the bytes that remain could
// hold, so a batch's bindings cost one allocation. Nothing keeps a window
// past the call it was decoded for — the WAL copies the argument sets it logs
// (wal.Log.Append) and sqlmini copies insert values into its scratch row — so
// no binding keeps the rest of its batch alive.
func (r *reader) args(what string) []any {
	n := r.count(what)
	if n == 0 {
		return nil
	}
	if len(r.argSlab) < n {
		r.argSlab = make([]any, max(n, min(n*r.left, len(r.b))))
	}
	args := r.argSlab[:n:n]
	r.argSlab = r.argSlab[n:]
	for i := 0; i < n && r.err == nil; i++ {
		args[i] = r.value()
	}
	return args
}

// The message codecs come in two forms. appendX appends the payload to a
// buffer the caller owns — on the connections that is a pooled frame buffer
// already holding the frame header, so a message is encoded in place and
// leaves in one Write. EncodeX is the same payload in a fresh slice.

// appendExec appends the MsgExec payload for req under reqID.
func appendExec(b []byte, reqID uint64, req query.Request) ([]byte, error) {
	b = appendHeader(b, reqID, req.Deadline, req.Name, req.SQL)
	return appendArgs(b, req.Args)
}

// EncodeExec encodes a Request under reqID.
func EncodeExec(reqID uint64, req query.Request) ([]byte, error) {
	return appendExec(make([]byte, 0, 64), reqID, req)
}

// DecodeExec decodes a MsgExec payload.
func DecodeExec(b []byte) (uint64, query.Request, error) {
	var c query.Call
	id, err := decodeCall(MsgExec, b, &stmtNames{}, nil, &c)
	return id, c.Request, err
}

// appendExecBatch appends the MsgExecBatch payload for req under reqID.
func appendExecBatch(b []byte, reqID uint64, req query.BatchRequest) ([]byte, error) {
	b = appendHeader(b, reqID, req.Deadline, req.Name, req.SQL)
	b = putUvarint(b, uint64(len(req.ArgSets)))
	var err error
	for _, set := range req.ArgSets {
		if b, err = appendArgs(b, set); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// EncodeExecBatch encodes a BatchRequest under reqID.
func EncodeExecBatch(reqID uint64, req query.BatchRequest) ([]byte, error) {
	return appendExecBatch(make([]byte, 0, 128), reqID, req)
}

// batchKey reads, without allocating, what decides whether a request payload
// of msgType joins a set: for a MsgExecBatch with no deadline, its name and
// SQL as written, and its binding count. ok is false for any other request,
// for a batch of no bindings (which holds a unit of the budget all the same,
// see Admission) and for a header that does not read.
func batchKey(msgType byte, p []byte) (key []byte, n int, ok bool) {
	if msgType != MsgExecBatch {
		return nil, 0, false
	}
	r := reader{b: p}
	if r.u64(); r.varint() != 0 || r.byte() != 0 {
		return nil, 0, false
	}
	stmt := r.b
	r.bytes()
	r.bytes()
	key = stmt[:len(stmt)-len(r.b)]
	n = r.count("argsets")
	return key, n, n > 0 && r.err == nil
}

// appendErr writes one error slot: a code byte, plus the text for generic
// errors. Sentinels travel as codes so errors.Is holds across the wire.
func appendErr(b []byte, err error) []byte {
	switch {
	case err == nil:
		return append(b, errNone)
	case errors.Is(err, query.ErrOverloaded):
		return append(b, errOverloaded)
	case errors.Is(err, query.ErrDeadlineExceeded):
		return append(b, errDeadline)
	case errors.Is(err, query.ErrConnLost):
		// A proxying backend lost *its* upstream connection; the sentinel
		// survives the hop so the far client can apply its retry contract.
		return append(b, errConnLost)
	default:
		return putString(append(b, errGeneric), err.Error())
	}
}

func (r *reader) errSlot() error {
	switch code := r.byte(); code {
	case errNone:
		return nil
	case errGeneric:
		return errors.New(r.string())
	case errOverloaded:
		return query.ErrOverloaded
	case errDeadline:
		return query.ErrDeadlineExceeded
	case errConnLost:
		return query.ErrConnLost
	default:
		if r.err == nil {
			r.err = fmt.Errorf("%w: unknown error code %d", ErrBadFrame, code)
		}
		return nil
	}
}

// appendResult appends the MsgResult payload for one value or error under
// reqID. Info stays server-side: the page/row accounting belongs to the
// execution stack, not the client API (the front door's observable surface is
// value + error).
func appendResult(b []byte, reqID uint64, v any, err error) ([]byte, error) {
	b = binary.BigEndian.AppendUint64(b, reqID)
	if err != nil {
		return appendErr(putUvarint(b, 0), err), nil
	}
	var e encoder
	return e.value(append(reserve(b, v), errNone), v)
}

// reserve writes the bytes the string cells among vs hold, which a reply
// states after its request id, and grows b by as much before any value is
// written. A select's cells are read from its table's vectors, at rows far
// apart: the loads of this pass do not depend on each other, so their cache
// misses overlap here instead of stalling the encoder one row at a time. It
// counts only strings and row sets' string columns; the decoder gives every
// other string cell a string of its own: boxed rows' (lifted as they are
// written, from a backend not a query.Doer) and lists'.
func reserve(b []byte, vs ...any) []byte {
	need := 0
	for _, v := range vs {
		switch x := v.(type) {
		case string:
			need += len(x)
		case *interp.RowSet:
			for _, c := range x.Cols {
				for j := 0; j < x.N && c.Strs != nil; j++ {
					need += len(c.Strs[x.At(j)])
				}
			}
		}
	}
	return putUvarint(slices.Grow(b, need), uint64(need))
}

// EncodeResult encodes one Result under reqID.
func EncodeResult(reqID uint64, res query.Result) ([]byte, error) {
	return appendResult(make([]byte, 0, 32), reqID, res.Value, res.Err)
}

// DecodeResult decodes a MsgResult payload.
func DecodeResult(b []byte) (uint64, query.Result, error) {
	r := &reader{b: b}
	id, rep := r.reply(false)
	return id, query.Result{Value: rep.Value, Err: rep.Err}, r.err
}

// appendBatchResult appends the MsgBatchResult payload for one value or error
// per binding under reqID.
func appendBatchResult(b []byte, reqID uint64, values []any, errs []error) ([]byte, error) {
	if len(values) != len(errs) {
		return nil, fmt.Errorf("net: batch result shape: %d values, %d errs", len(values), len(errs))
	}
	b = binary.BigEndian.AppendUint64(b, reqID)
	b = putUvarint(reserve(b, values...), uint64(len(values)))
	var e encoder
	var err error
	for i := range values {
		b = appendErr(b, errs[i])
		if errs[i] != nil {
			continue
		}
		if b, err = e.value(b, values[i]); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// EncodeBatchResult encodes one BatchResult under reqID.
func EncodeBatchResult(reqID uint64, res query.BatchResult) ([]byte, error) {
	return appendBatchResult(make([]byte, 0, 64), reqID, res.Values, res.Errs)
}

// DecodeBatchResult decodes a MsgBatchResult payload.
func DecodeBatchResult(b []byte) (uint64, query.BatchResult, error) {
	r := &reader{b: b}
	id, rep := r.reply(true)
	return id, query.BatchResult{Values: rep.Values, Errs: rep.Errs}, r.err
}

// reply reads a MsgResult payload, or a MsgBatchResult one: the bytes its
// string cells hold, then its slots, an error or a value each, after their
// count. The string cells are substrings of one string with room for the bytes
// the reply states, but not beyond the bytes that follow, so no cell is a view
// of the pooled payload and the reply is read once. A cell that does not fit
// the room left is a string of its own, as is every cell of a reply that
// states more than maxRetained bytes, so one retained cell never pins a large
// reply: a wrong total costs allocations, never a wrong value.
func (r *reader) reply(batch bool) (uint64, query.Reply) {
	id, n := r.u64(), 1
	if cells := r.uvarint(); cells <= maxRetained {
		r.cells.Grow(int(min(cells, uint64(len(r.b)))))
	}
	if batch {
		n = r.count("batch result")
	}
	var rep query.Reply
	if !batch {
		if rep.Err = r.errSlot(); rep.Err == nil && r.err == nil {
			rep.Value = r.value()
		}
		return id, rep
	}
	rep.Values, rep.Errs = make([]any, n), make([]error, n)
	for i := 0; i < n && r.err == nil; i++ {
		r.left = n - i
		if rep.Errs[i] = r.errSlot(); rep.Errs[i] == nil && r.err == nil {
			rep.Values[i] = r.value()
		}
	}
	return id, rep
}

// decodeReply decodes a response frame of either kind, through names: the
// column names of the last row result decoded on the same call. A batch
// reply's Errs is never nil, which is how callers tell the two kinds apart.
func decodeReply(msgType byte, payload []byte, names *[]string) (query.Reply, error) {
	r := &reader{b: payload, keys: *names}
	_, rep := r.reply(msgType != MsgResult)
	*names = r.keys
	return rep, r.err
}

// appendReply appends to b the whole response frame answering a call of the
// given shape with rep, whose row results are encoded as they are:
// columnar from a backend that is a query.Doer, never boxed on the way.
func appendReply(b []byte, reqID uint64, batch bool, rep *query.Reply) ([]byte, error) {
	start := len(b)
	var err error
	if batch {
		b, err = appendBatchResult(beginFrame(b, MsgBatchResult), reqID, rep.Values, rep.Errs)
	} else {
		b, err = appendResult(beginFrame(b, MsgResult), reqID, rep.Value, rep.Err)
	}
	if err != nil {
		return nil, err
	}
	return finishFrame(b, start)
}

// decodeCall decodes a request frame of either kind into the zero call c and
// returns its id; last is the read loop's memory of the previous request's
// statement. A batch's bindings are written behind those of sets, in sets'
// storage when it has the room, and c.ArgSets is that run of them alone: the
// front door decodes a set's requests onto one list.
func decodeCall(msgType byte, payload []byte, last *stmtNames, sets [][]any, c *query.Call) (uint64, error) {
	r := &reader{b: payload}
	id := r.header(last, &c.Request)
	if msgType == MsgExec {
		c.Args = r.args("args")
		return id, r.err
	}
	n := r.count("argsets")
	c.ArgSets = slices.Grow(sets, n)[len(sets):len(sets)]
	for i := 0; i < n && r.err == nil; i++ {
		r.left = n - i
		c.ArgSets = append(c.ArgSets, r.args("argset"))
	}
	if c.ArgSets == nil {
		c.ArgSets = [][]any{} // what tells a batch call of no bindings from a single one
	}
	return id, r.err
}
