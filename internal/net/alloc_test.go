// The race detector makes sync.Pool drop a quarter of what is Put, so pooled
// frame buffers and call slots are reallocated and the count below does not
// hold under it.

//go:build !race

package net

import (
	"testing"

	"repro/internal/query"
)

// TestRoundTripAllocations pins what one no-op Exec costs the heap, client and
// server together: 13 objects, every one of them part of a decoded value (the
// request's name, SQL and args on the server; the reply's row set, its maps,
// strings and boxed values on the client) or the sorted key slice the row
// encoder builds. The frame buffers, the response slot, the payload storage
// of both read loops and the worker are reused. (The commit before this path
// was rebuilt paid 26: the measured value is the ceiling.)
func TestRoundTripAllocations(t *testing.T) {
	c := benchPair(t)
	args := []any{int64(42)}
	got := testing.AllocsPerRun(2000, func() {
		if res := c.Exec(query.Req("point", benchSQL, args)); res.Err != nil {
			t.Fatal(res.Err)
		}
	})
	if got > 13 {
		t.Errorf("a no-op round trip allocates %.2f objects, want at most 13", got)
	}
}
