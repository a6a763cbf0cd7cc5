package net

import (
	"bufio"
	"bytes"
	"sync"
	"testing"

	"repro/internal/interp"
	"repro/internal/query"
)

// The front door's own micro-benchmarks: what a round trip costs with nothing
// behind the door, over loopback TCP, client and server in this process.
//
//	go test -run XXX -bench 'RoundTrip|FrameWriteRead' -benchmem ./internal/net/

const benchSQL = "select nickname, rating from users where uid = ?"

// noopBackend answers at once with one small row, like a point read.
func noopBackend() *stubBackend {
	var rows any = interp.Rows{{"nickname": "user42", "rating": int64(7)}}
	return &stubBackend{exec: func(query.Request) query.Result { return query.Ok(rows) }}
}

func benchPair(tb testing.TB) *Client {
	tb.Helper()
	s := NewServer(noopBackend(), ServerOptions{})
	if err := s.Listen("127.0.0.1:0"); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Close)
	c, err := Dial(s.Addr())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(c.Close)
	return c
}

// BenchmarkRoundTripNoop is one caller at depth one: one write and one read of
// the socket on each side per request.
func BenchmarkRoundTripNoop(b *testing.B) {
	c := benchPair(b)
	args := []any{int64(42)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := c.Exec(query.Req("point", benchSQL, args)); res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}

// BenchmarkRoundTripNoopPipelined8 is eight callers sharing the connection:
// requests and replies that are ready together share writes.
func BenchmarkRoundTripNoopPipelined8(b *testing.B) {
	const depth = 8
	c := benchPair(b)
	args := []any{int64(42)}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < depth; g++ {
		n := b.N / depth
		if g < b.N%depth {
			n++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if res := c.Exec(query.Req("point", benchSQL, args)); res.Err != nil {
					b.Error(res.Err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkFrameWriteRead is the framing alone, no socket: a point request
// encoded in place and sent through a frameWriter into memory, then read back
// through the buffered reader into reused storage and decoded.
func BenchmarkFrameWriteRead(b *testing.B) {
	var wire bytes.Buffer
	var fw frameWriter
	fw.init(&wire)
	br := bufio.NewReader(&wire)
	req := query.Req("point", benchSQL, []any{int64(42)})
	var frame, payload []byte
	b.ReportAllocs()
	b.ResetTimer()
	var last stmtNames
	for i := 0; i < b.N; i++ {
		var err error
		if frame, err = appendExec(beginFrame(frame, MsgExec), uint64(i), req); err != nil {
			b.Fatal(err)
		}
		if frame, err = finishFrame(frame); err != nil {
			b.Fatal(err)
		}
		if _, err = fw.send(frame); err != nil {
			b.Fatal(err)
		}
		var msgType byte
		if msgType, payload, err = readFrame(br, payload); err != nil {
			b.Fatal(err)
		}
		if _, _, err = decodeCall(msgType, payload, &last); err != nil {
			b.Fatal(err)
		}
	}
}
