package net

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/interp"
	"repro/internal/query"
)

// The frames the connections build — codec appended after the header in one
// buffer — must be, byte for byte, what the two-write WriteFrame this package
// used to have put on the wire: [u32 len][type][payload] around the exported
// encoders' payloads. All six message types; old and new peers interoperate.
func TestFrameGoldenBytes(t *testing.T) {
	req := query.Req("q", "select val from t where id = ?", []any{int64(1), "s", true, nil})
	req.Deadline = query.FromUnixNanos(1234567890)
	breq := query.BatchReq("b", "select 1", [][]any{{int64(1)}, {"x", false}})
	res := query.Ok(interp.Rows{{"id": int64(1), "val": "a"}, {"id": int64(2), "val": "b"}})
	bres := query.BatchResult{
		Values: []any{nil, int64(3), "y"},
		Errs:   []error{nil, query.ErrConnLost, errors.New("no such table: ghosts")},
	}
	rep := query.Reply{Value: res.Value}
	brep := query.Reply{Values: bres.Values, Errs: bres.Errs}

	must := must(t)
	finished := func(b []byte, err error) []byte {
		t.Helper()
		return must(finishFrame(must(b, err), 0))
	}
	cases := []struct {
		name    string
		msgType byte
		payload []byte // from the exported encoder
		frame   []byte // as the connections build it
	}{
		{"hello", MsgHello, EncodeHello(), nil},
		{"helloAck", MsgHelloAck, EncodeHelloAck(), nil},
		{"exec", MsgExec, must(EncodeExec(7, req)),
			finished(appendExec(beginFrame(nil, MsgExec), 7, req))},
		{"execBatch", MsgExecBatch, must(EncodeExecBatch(8, breq)),
			finished(appendExecBatch(beginFrame(nil, MsgExecBatch), 8, breq))},
		{"result", MsgResult, must(EncodeResult(9, res)),
			must(appendReply(nil, 9, false, &rep))},
		{"batchResult", MsgBatchResult, must(EncodeBatchResult(10, bres)),
			must(appendReply(nil, 10, true, &brep))},
	}
	for _, c := range cases {
		var golden []byte // the old writer: header, then payload
		golden = binary.BigEndian.AppendUint32(golden, uint32(len(c.payload)+1))
		golden = append(append(golden, c.msgType), c.payload...)

		var wire bytes.Buffer
		if err := WriteFrame(&wire, c.msgType, c.payload); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !bytes.Equal(wire.Bytes(), golden) {
			t.Errorf("%s: WriteFrame wrote %x, want %x", c.name, wire.Bytes(), golden)
		}
		if c.frame != nil && !bytes.Equal(c.frame, golden) {
			t.Errorf("%s: in-place frame %x, want %x", c.name, c.frame, golden)
		}
	}
}

// A length prefix is a promise, not bytes: the reader must not reserve what a
// corrupt one claims. A header announcing MaxFrame followed by EOF costs at
// most the read-ahead step and still fails as an early EOF.
func TestReadFrameDoesNotTrustLengthPrefix(t *testing.T) {
	var hdr [frameHeader]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame)
	hdr[4] = MsgResult
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := readFrame(bytes.NewReader(hdr[:]), nil)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("got %v, want an early-EOF error", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2<<20 {
		t.Fatalf("a %d-byte header made the reader allocate %d bytes", len(hdr), got)
	}
}

// A frame larger than the read-ahead step arrives whole, and storage larger
// than maxRetained is not kept for the next frame.
func TestReadFrameLargePayload(t *testing.T) {
	payload := bytes.Repeat([]byte("0123456789abcdef"), 3*readAhead/16+1)
	var wire bytes.Buffer
	if err := WriteFrame(&wire, MsgResult, payload); err != nil {
		t.Fatal(err)
	}
	msgType, got, err := readFrame(&wire, make([]byte, 0, 16))
	if err != nil || msgType != MsgResult || !bytes.Equal(got, payload) {
		t.Fatalf("large frame: type %d, %d bytes, %v", msgType, len(got), err)
	}
	if retain(got) != nil {
		t.Fatalf("a %d-byte buffer was retained (cap is %d)", cap(got), maxRetained)
	}
	fb := &buffer{b: got}
	putBuf(fb)
	if fb.b != nil {
		t.Fatal("an oversized buffer went back to the pool")
	}
}

// Every decoder copies what it keeps, which is what lets the connections
// reuse payload storage: decode, scribble over the source, and the decoded
// value must not have changed.
func TestDecodedValuesDoNotAliasPayload(t *testing.T) {
	// One memory of the last statement across every decode, as on a
	// connection, and one of the last column names, as on a call: a request
	// or reply repeating the one before it gets the remembered strings, which
	// must be copies too.
	var last stmtNames
	var names []string
	for name, frame := range validFrames(t) {
		msgType, payload, err := readFrame(bytes.NewReader(frame), nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		decode := func(b []byte) any {
			switch msgType {
			case MsgExec, MsgExecBatch:
				id, c, err := decodeOne(msgType, b, &last)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				return []any{id, c}
			default:
				rep, err := decodeReply(msgType, b, &names)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				return rep
			}
		}
		want := decode(bytes.Clone(payload))
		got := decode(payload)
		for i := range payload {
			payload[i] = 0xff
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoded value changed when its payload was overwritten:\n got %+v\nwant %+v", name, got, want)
		}
	}

	// A statement string that is reused must not be a view of the payload it
	// was first read from, nor of the one that repeated it.
	req := query.Req("q", "select val from t where id = ?", []any{int64(1)})
	last = stmtNames{}
	for round := 0; round < 3; round++ {
		payload := must(t)(EncodeExec(uint64(round), req))
		_, c, err := decodeOne(MsgExec, payload, &last)
		if err != nil {
			t.Fatal(err)
		}
		for i := range payload {
			payload[i] = 0xff
		}
		if c.Name != req.Name || c.SQL != req.SQL || last.name != req.Name || last.sql != req.SQL {
			t.Fatalf("round %d: statement %q %q (remembered %q %q) after its payload was overwritten",
				round, c.Name, c.SQL, last.name, last.sql)
		}
	}
}

// gatedWriter is an io.Writer whose first Write blocks until released; it
// records every Write it is handed.
type gatedWriter struct {
	entered chan struct{} // closed when the first Write has begun
	release chan struct{}
	mu      sync.Mutex
	writes  [][]byte
	failAt  int // fail the nth Write (1-based) after taking half of it; 0 = never
}

func newGatedWriter() *gatedWriter {
	return &gatedWriter{entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gatedWriter) Write(b []byte) (int, error) {
	g.mu.Lock()
	g.writes = append(g.writes, bytes.Clone(b))
	nth := len(g.writes)
	g.mu.Unlock()
	if nth == 1 {
		close(g.entered)
		<-g.release
	}
	if nth == g.failAt {
		return len(b) / 2, errors.New("link down")
	}
	return len(b), nil
}

// The flush-combining rule, made deterministic: while the first frame's Write
// is in the kernel, N−1 more senders queue and return at once; the flusher
// then writes all of them in one Write, in order. N frames, two Writes.
func TestFrameWriterCombinesQueuedFrames(t *testing.T) {
	const n = 16
	g := newGatedWriter()
	var fw frameWriter
	fw.init(g)
	frame := func(i int) []byte {
		return must(t)(finishFrame(append(beginFrame(nil, MsgResult), byte(i), byte(i), byte(i)), 0))
	}
	done := make(chan error, 1)
	go func() {
		_, err := fw.send(frame(0))
		done <- err
	}()
	<-g.entered
	var want []byte
	for i := 1; i < n; i++ {
		if _, err := fw.send(frame(i)); err != nil { // returns without writing: a flush is in progress
			t.Fatal(err)
		}
		want = append(want, frame(i)...)
	}
	close(g.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(g.writes) != 2 {
		t.Fatalf("%d frames left in %d Writes, want 2", n, len(g.writes))
	}
	if !bytes.Equal(g.writes[0], frame(0)) || !bytes.Equal(g.writes[1], want) {
		t.Fatalf("frames reordered or damaged in the combined Write")
	}
}

// When the connection fails under a flush, each frame's fate is exact: whole
// frames inside the bytes the Write took were sent; the frame the failure cut,
// and everything queued behind it, provably never left. That is what lets the
// client retry a queued write without risking a duplicate.
func TestFrameWriterSettlesSentAndUnsent(t *testing.T) {
	g := newGatedWriter()
	g.failAt = 2
	var fw frameWriter
	fw.init(g)
	frame := must(t)(finishFrame(append(beginFrame(nil, MsgExec), "abcdefgh"...), 0))
	leader := make(chan error, 1)
	var first uint64
	go func() {
		end, err := fw.send(frame)
		first = end
		leader <- err
	}()
	<-g.entered
	var ends []uint64
	for i := 0; i < 3; i++ { // the second Write carries three frames and takes one and a half
		end, err := fw.send(frame)
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, end)
	}
	settled := make(chan bool, 1)
	go func() { settled <- fw.sent(ends[2]) }() // must wait for the flush, not guess
	close(g.release)
	if err := <-leader; err == nil {
		t.Fatal("the flusher did not report the failed Write")
	}
	if <-settled {
		t.Error("a frame queued behind the failed Write reads as sent")
	}
	if !fw.sent(first) || !fw.sent(ends[0]) {
		t.Error("a frame written whole before the failure reads as unsent")
	}
	if fw.sent(ends[1]) {
		t.Error("the frame the failure cut in half reads as sent")
	}
	if end, err := fw.send(frame); err == nil || fw.sent(end) {
		t.Error("a failed writer accepted another frame")
	}
	if len(g.writes) != 2 {
		t.Errorf("%d Writes, want 2: nothing is written after a failure", len(g.writes))
	}
}

func must(t *testing.T) func([]byte, error) []byte {
	return func(b []byte, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
}
