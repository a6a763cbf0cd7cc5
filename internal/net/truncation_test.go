package net

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	stdnet "net"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/query"
)

// validFrames returns one fully-encoded frame (header + payload) per message
// type, exercising every payload shape the protocol can carry.
func validFrames(t testing.TB) map[string][]byte {
	t.Helper()
	rows := interp.Rows{{"id": int64(1), "val": "a"}, {"id": int64(2), "val": "b"}}
	payloads := map[string]struct {
		msgType byte
		encode  func() ([]byte, error)
	}{
		"exec": {MsgExec, func() ([]byte, error) {
			return EncodeExec(7, query.Req("q", "select val from t where id = ?", []any{int64(1), "s", true, nil}))
		}},
		"execBatch": {MsgExecBatch, func() ([]byte, error) {
			return EncodeExecBatch(8, query.BatchReq("b", "select 1", [][]any{{int64(1)}, {"x", false}}))
		}},
		"result": {MsgResult, func() ([]byte, error) {
			return EncodeResult(9, query.Ok(rows))
		}},
		"batchResult": {MsgBatchResult, func() ([]byte, error) {
			return EncodeBatchResult(10, query.BatchResult{
				Values: []any{nil, int64(3), "y"},
				Errs:   []error{nil, query.ErrConnLost, query.ErrDeadlineExceeded},
			})
		}},
	}
	frames := make(map[string][]byte, len(payloads))
	for name, p := range payloads {
		payload, err := p.encode()
		if err != nil {
			t.Fatalf("encode %s: %v", name, err)
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, p.msgType, payload); err != nil {
			t.Fatalf("frame %s: %v", name, err)
		}
		frames[name] = buf.Bytes()
	}
	return frames
}

// decodePayload runs the decoder matching msgType. Unknown types are the
// fuzzer's problem, not ours — they return nil error and are skipped.
func decodePayload(msgType byte, payload []byte) error {
	switch msgType {
	case MsgExec:
		_, _, err := DecodeExec(payload)
		return err
	case MsgExecBatch:
		_, _, err := DecodeExecBatch(payload)
		return err
	case MsgResult:
		_, _, err := DecodeResult(payload)
		return err
	case MsgBatchResult:
		_, _, err := DecodeBatchResult(payload)
		return err
	}
	return nil
}

// Every strict prefix of a valid frame must make ReadFrame return an error —
// an EOF-class error or ErrBadFrame — never a panic and never a bogus frame.
// This is every early-EOF point a torn write can produce: mid-header,
// header-only, and every partial-payload length.
func TestReadFrameEveryEarlyEOF(t *testing.T) {
	for name, frame := range validFrames(t) {
		for cut := 0; cut < len(frame); cut++ {
			_, _, err := ReadFrame(bytes.NewReader(frame[:cut]))
			if err == nil {
				t.Fatalf("%s frame cut at %d/%d bytes read successfully", name, cut, len(frame))
			}
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, ErrBadFrame) {
				t.Fatalf("%s frame cut at %d: unexpected error class %v", name, cut, err)
			}
		}
		// The intact frame still reads, so the loop above tested real prefixes.
		if _, _, err := ReadFrame(bytes.NewReader(frame)); err != nil {
			t.Fatalf("%s frame unreadable intact: %v", name, err)
		}
	}
}

// Every strict prefix of a valid message payload must make its decoder
// return an error — a field is always missing — and never panic. This walks
// the cut point through every byte of every message type, covering each
// primitive reader (uvarint, varint, string, byte, u64, count) at its
// truncation boundary.
func TestDecodersRejectEveryTruncatedPayload(t *testing.T) {
	for name, frame := range validFrames(t) {
		msgType, payload, err := ReadFrame(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := decodePayload(msgType, payload); err != nil {
			t.Fatalf("%s: intact payload rejected: %v", name, err)
		}
		for cut := 0; cut < len(payload); cut++ {
			if err := decodePayload(msgType, payload[:cut]); err == nil {
				t.Fatalf("%s payload cut at %d/%d bytes decoded successfully",
					name, cut, len(payload))
			}
		}
	}
}

// FuzzTruncatedFrame is the torn-write fuzzer: it takes frame bytes and a
// cut point, feeds the truncated stream to ReadFrame, and — when a frame
// does survive — feeds its payload through the message decoders. Nothing in
// this path may panic or misread, no matter where the connection died.
func FuzzTruncatedFrame(f *testing.F) {
	for _, frame := range validFrames(f) {
		f.Add(frame, len(frame)/2)
		f.Add(frame, len(frame)-1)
		f.Add(frame, 3) // mid-header
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x01}, 5) // absurd length header

	f.Fuzz(func(t *testing.T, data []byte, cut int) {
		if cut < 0 || cut > len(data) {
			cut = len(data)
		}
		r := bytes.NewReader(data[:cut])
		msgType, payload, err := ReadFrame(r)
		if err != nil {
			return // rejected — that's fine, it just must not panic
		}
		// A frame that did decode must have been fully present.
		if len(payload)+5 > cut {
			t.Fatalf("ReadFrame over-read: %d payload bytes from a %d byte stream",
				len(payload), cut)
		}
		// And the message layer must reject or decode without panicking,
		// even if the fuzzer spliced garbage that happens to frame cleanly.
		_ = decodePayload(msgType, payload)
	})
}

// relayTo starts a relay in front of s that forwards frames both ways over
// raw connections, passing every client frame through mangle on its way to
// the server, and returns the address to dial. The relay serves one
// connection; the test closes its client before returning.
func relayTo(t *testing.T, s *Server, mangle func(msgType byte, payload []byte) []byte) string {
	t.Helper()
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	relay := func(dst, src stdnet.Conn, mangle func(byte, []byte) []byte) {
		defer dst.Close()
		for {
			msgType, payload, err := ReadFrame(src)
			if err != nil {
				return
			}
			if WriteFrame(dst, msgType, mangle(msgType, payload)) != nil {
				return
			}
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		down, err := ln.Accept()
		if err != nil {
			return
		}
		up, err := stdnet.Dial("tcp", s.Addr())
		if err != nil {
			down.Close()
			return
		}
		go relay(down, up, func(_ byte, p []byte) []byte { return p })
		relay(up, down, mangle)
	}()
	t.Cleanup(func() {
		ln.Close()
		<-done
	})
	return ln.Addr().String()
}

// A batch request the server cannot decode is answered with a scalar error
// frame (how many bindings it meant to carry is unknowable). The client must
// surface that error — the server's "bad request" text — on every binding,
// not a protocol violation of its own, and the connection must stay usable.
// The damage is done by a relay that cuts the last byte off every
// MsgExecBatch payload.
func TestUndecodableBatchSurfacesServerError(t *testing.T) {
	s := startServer(t, echoBackend(), ServerOptions{})
	c, err := Dial(relayTo(t, s, func(msgType byte, payload []byte) []byte {
		if msgType == MsgExecBatch {
			payload = payload[:len(payload)-1]
		}
		return payload
	}))
	if err != nil {
		t.Fatal(err)
	}
	br := c.ExecBatch(query.BatchReq("b", "double", [][]any{{int64(1)}, {int64(2)}}))
	for i, err := range br.Errs {
		if err == nil || !strings.Contains(err.Error(), "net: bad request") || errors.Is(err, ErrBadFrame) {
			t.Errorf("binding %d: %v, want the server's bad-request error", i, err)
		}
	}
	if v, err := c.Exec(query.Req("q", "double", []any{int64(21)})).Pair(); err != nil || v != int64(42) {
		t.Errorf("Exec after the bad batch: (%v, %v)", v, err)
	}
	c.Close()
}

// A request whose reserved header byte is not zero reaches the server through
// a relay that sets it on the first request frame of one kind. The server
// answers that request with its bad-request error, and the next Exec and
// ExecBatch on the same connection are served.
func TestReservedHeaderByteRejectedOverTCP(t *testing.T) {
	for _, kind := range []byte{MsgExec, MsgExecBatch} {
		t.Run(fmt.Sprintf("msg=%d", kind), func(t *testing.T) {
			s := startServer(t, echoBackend(), ServerOptions{})
			var mangled bool
			c, err := Dial(relayTo(t, s, func(msgType byte, payload []byte) []byte {
				if msgType == kind && !mangled {
					mangled = true
					payload[reservedAt(payload)] = 1
				}
				return payload
			}))
			if err != nil {
				t.Fatal(err)
			}
			var errs []error
			if kind == MsgExec {
				errs = []error{c.Exec(query.Req("q", "double", []any{int64(1)})).Err}
			} else {
				errs = c.ExecBatch(query.BatchReq("b", "double", [][]any{{int64(1)}, {int64(2)}})).Errs
			}
			for i, err := range errs {
				if err == nil || !strings.Contains(err.Error(), "net: bad request") || !strings.Contains(err.Error(), "reserved header byte") {
					t.Errorf("binding %d: %v, want the server's bad-request error", i, err)
				}
			}
			if v, err := c.Exec(query.Req("q", "double", []any{int64(21)})).Pair(); err != nil || v != int64(42) {
				t.Errorf("Exec after the rejected request: (%v, %v)", v, err)
			}
			br := c.ExecBatch(query.BatchReq("b", "double", [][]any{{int64(2)}, {int64(3)}}))
			if br.Errs[0] != nil || br.Errs[1] != nil || br.Values[0] != int64(4) || br.Values[1] != int64(6) {
				t.Errorf("ExecBatch after the rejected request: %v %v", br.Values, br.Errs)
			}
			c.Close()
		})
	}
}
