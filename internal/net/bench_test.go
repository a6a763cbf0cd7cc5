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

// batchReply is a 64-binding point-select reply, one (nickname, rating) row a
// binding: columnar, as a query.Doer backend answers, with the bindings split
// over two headers as two shards' plans hold them, or boxed.
func batchReply(boxed bool) *query.Reply {
	cols := []interp.RowCol{{Strs: make([]string, 64)}, {Ints: make([]int64, 64)}}
	for i := range 64 {
		cols[0].Strs[i], cols[1].Ints[i] = "user"+string(rune('A'+i%26))+"xyz", int64(i%32)
	}
	hdrs := []*interp.RowHeader{interp.NewRowHeader([]string{"nickname", "rating"}), interp.NewRowHeader([]string{"nickname", "rating"})}
	rep := &query.Reply{Values: make([]any, 64), Errs: make([]error, 64)}
	for i := range rep.Values {
		rs := &interp.RowSet{Header: hdrs[i%2], Cols: cols, Sel: []int{i}, N: 1}
		if rep.Values[i] = rs; boxed {
			rep.Values[i] = rs.Rows()
		}
	}
	return rep
}

// BenchmarkBatchReplyCodec encodes and decodes batchReply's two shapes, as the
// server writes it into a reused frame buffer and as a client reads it.
//
//	go test -run XXX -bench BatchReplyCodec -benchmem ./internal/net/
func BenchmarkBatchReplyCodec(b *testing.B) {
	for _, shape := range []string{"columnar", "boxed"} {
		rep := batchReply(shape == "boxed")
		frame, err := appendReply(nil, 1, true, rep)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("encode/"+shape, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if frame, err = appendReply(frame[:0], uint64(i), true, rep); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("decode/"+shape, func(b *testing.B) {
			b.ReportAllocs()
			var names []string
			for i := 0; i < b.N; i++ {
				if _, err := decodeReply(MsgBatchResult, frame[frameHeader:], &names); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
