package experiments

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/net"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/replica"
	"repro/internal/wal"
)

// TestServedPosture is CI's loadgen smoke inside go test: the served stack
// in the posture `asyncq -serve` runs — two shards keyed on load.id, each a
// primary and one synchronous replica over a group-commit WAL — driven over
// TCP closed loop at the admission budget, first with point reads, then with
// inserts of fresh ids. Nothing may shed, hang or fail; every acknowledged
// insert lands on a primary and its replica; both shards serve.
func TestServedPosture(t *testing.T) {
	const (
		rows     = 2000
		inflight = 16
		reads    = 2000
		inserts  = 400
	)
	st, err := Serve("127.0.0.1:0", 0, 2, replica.Options{Replicas: 1, Durability: wal.Group}, rows,
		net.ServerOptions{MaxInflight: inflight, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	run := func(what string, opts net.LoadOptions, n int64) {
		t.Helper()
		opts.Conns, opts.Requests = inflight, n
		rep, err := net.RunLoad(opts)
		if err == nil {
			err = rep.Check()
		}
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if rep.Shed != 0 || rep.Completed != n {
			t.Fatalf("%s: completed %d of %d, shed %d", what, rep.Completed, n, rep.Shed)
		}
	}
	run("point reads", st.load(rows), reads)

	ins := st.load(rows)
	var next atomic.Int64
	next.Store(rows)
	ins.Next = func(*rand.Rand) query.Request {
		id := next.Add(1)
		return query.Req("ins", "insert into load values (?, ?)", []any{id, fmt.Sprintf("w%d", id)})
	}
	run("inserts", ins, inserts)

	if got := st.Router.Stats().Inserts; got != inserts*2 {
		t.Fatalf("router counts %d inserts, want %d (primary + replica per ack)", got, inserts*2)
	}
	var queries []int64
	for _, b := range st.Router.Backends() {
		queries = append(queries, b.Stats().Queries)
	}
	if len(queries) != 2 || queries[0] == 0 || queries[1] == 0 {
		t.Fatalf("want both of two shards serving queries, got per-shard queries %v", queries)
	}
}
