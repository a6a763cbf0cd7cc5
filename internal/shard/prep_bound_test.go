package shard

import (
	"fmt"
	"testing"

	"repro/internal/net"
	"repro/internal/query"
	"repro/internal/replica"
	"repro/internal/sqlmini"
)

// TestPreparedCacheIsBoundedAgainstTheWire: statement text comes off the wire
// and may embed literals, so a client can send any number of distinct
// statements. Twice the cache bound of them through a real front door over a
// replicated two-shard router must leave the router's prepared cache at the
// bound (it grew without limit, as did every group's and server's behind it,
// which share the type) and still answer each one as the single server
// answers its parameterized form.
func TestPreparedCacheIsBoundedAgainstTheWire(t *testing.T) {
	ref, _ := newFixture(t, 1)
	r := newRouter(t, ref, Options{Shards: 2, Group: replica.Options{Replicas: 1}, Keys: fixtureKeys()})
	fd := net.NewServer(r, net.ServerOptions{})
	if err := fd.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fd.Close)
	cl, err := net.Dial(fd.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })

	for i := 0; i < 2*sqlmini.MaxPrepared; i++ {
		sql := fmt.Sprintf("select name, grp from users where uid = %d", i) // past 500 the key matches nothing
		want, wantErr := ref.Exec(query.Req("q", "select name, grp from users where uid = ?", []any{int64(i)})).Pair()
		got, gotErr := cl.Exec(query.Req("q", sql, nil)).Pair()
		same(t, sql, want, got, wantErr, gotErr)
	}
	if n := r.prep.Len(); n != sqlmini.MaxPrepared {
		t.Fatalf("router prepared cache holds %d statements after %d distinct ones, want the bound %d",
			n, 2*sqlmini.MaxPrepared, sqlmini.MaxPrepared)
	}
}
