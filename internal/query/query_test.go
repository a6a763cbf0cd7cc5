package query

import (
	"errors"
	"testing"
	"unsafe"
)

// Closures on the request path (the front door's handler goroutine, the
// router's fan-out legs) capture a Call by value; the compiler does that
// without a heap allocation only up to 128 bytes, and the benchmark's
// allocs_per_op gate has no room for one more.
func TestCallStaysCapturableByValue(t *testing.T) {
	if n := unsafe.Sizeof(Call{}); n > 128 {
		t.Fatalf("Call is %d bytes; closures capture at most 128 by value", n)
	}
}

func TestCallShapes(t *testing.T) {
	one := Call{Request: Req("q", "select 1", []any{int64(1)})}
	many := BatchCall(BatchReq("q", "select 1", nil))
	if one.Batch() || one.Units() != 1 {
		t.Errorf("single call: batch=%v units=%d", one.Batch(), one.Units())
	}
	if !many.Batch() || many.Units() != 0 {
		t.Errorf("empty batch call: batch=%v units=%d", many.Batch(), many.Units())
	}
	boom := errors.New("boom")
	var rep Reply
	if one.Fail(boom, &rep); rep.Err != boom || rep.Errs != nil || rep.FirstErr() != boom {
		t.Errorf("single Fail: %+v", rep)
	}
	many.ArgSets = [][]any{{int64(1)}, {int64(2)}}
	if many.Fail(boom, &rep); rep.Err != nil || len(rep.Values) != 2 || len(rep.Errs) != 2 || rep.FirstErr() != boom {
		t.Errorf("batch Fail: %+v", rep)
	}
}
