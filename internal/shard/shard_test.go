package shard

import (
	"fmt"
	"math/rand"
	"repro/internal/query"
	"slices"
	"testing"

	"repro/internal/interp"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/sqlmini"
	"repro/internal/storage"
	"repro/internal/wal"
)

// newFixture loads a reference server with a sharded users table (unique
// index on uid, secondary on grp) and a replicated logs table, and a router
// over n shards partitioned from it. Scale 0: no wall-clock sleeping.
func newFixture(t *testing.T, n int) (*server.Server, *Router) {
	t.Helper()
	ref := server.New(server.SYS1(), 0)
	t.Cleanup(ref.Close)
	users := ref.Catalog().CreateTable("users", storage.NewSchema(
		storage.Column{Name: "uid", Type: storage.TInt},
		storage.Column{Name: "name", Type: storage.TString},
		storage.Column{Name: "grp", Type: storage.TInt},
	))
	users.SetRowsPerPage(8)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		if _, err := users.Insert([]any{int64(i), fmt.Sprintf("u%d", i), int64(rng.Intn(20))}); err != nil {
			t.Fatal(err)
		}
	}
	logs := ref.Catalog().CreateTable("logs", storage.NewSchema(
		storage.Column{Name: "id", Type: storage.TInt},
		storage.Column{Name: "msg", Type: storage.TString},
	))
	for i := 0; i < 40; i++ {
		if _, err := logs.Insert([]any{int64(i), fmt.Sprintf("m%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	// A sharded table with zero rows: scatter merges must treat every
	// shard's empty contribution as the identity.
	ref.Catalog().CreateTable("empty", storage.NewSchema(
		storage.Column{Name: "eid", Type: storage.TInt},
		storage.Column{Name: "tag", Type: storage.TString},
	))
	ref.FinishLoad()
	if err := ref.AddIndex("users", "uid", true); err != nil {
		t.Fatal(err)
	}
	if err := ref.AddIndex("users", "grp", false); err != nil {
		t.Fatal(err)
	}

	r := newRouter(t, ref, Options{Shards: n, Keys: fixtureKeys()})
	return ref, r
}

func fixtureKeys() map[string]string {
	return map[string]string{"users": "uid", "empty": "eid"}
}

// newRouter builds a router with the given options partitioned from ref.
func newRouter(t *testing.T, ref *server.Server, opts Options) *Router {
	t.Helper()
	r := New(server.SYS1(), 0, opts)
	t.Cleanup(r.Close)
	if err := r.LoadFrom(ref); err != nil {
		t.Fatal(err)
	}
	return r
}

// same asserts the sharded result equals the single-server result.
func same(t *testing.T, label string, want, got any, wantErr, gotErr error) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: error mismatch: single %v, sharded %v", label, wantErr, gotErr)
	}
	if wantErr != nil {
		if wantErr.Error() != gotErr.Error() {
			t.Fatalf("%s: error text: single %q, sharded %q", label, wantErr, gotErr)
		}
		return
	}
	if !interp.Equal(want, got) {
		t.Fatalf("%s: result: single %s, sharded %s",
			label, interp.Format(want), interp.Format(got))
	}
}

// New builds a group per shard from Options.Group, so it refuses a store:
// one store can back only one group's log.
func TestNewRejectsASharedStore(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted Options.Group.Store")
		}
	}()
	New(server.SYS1(), 0, Options{Shards: 2, Group: replica.Options{Replicas: 1, Store: wal.NewMemStore()}})
}

func TestPartitionIsDeterministicAndSpreads(t *testing.T) {
	counts := make([]int, 4)
	rg := NewRanges(4)
	for i := int64(0); i < 1000; i++ {
		s := rg.OwnerOf(i)
		if s != NewRanges(4).OwnerOf(i) {
			t.Fatalf("unstable partition for %d", i)
		}
		if s < 0 || s >= 4 {
			t.Fatalf("partition out of range: %d", s)
		}
		counts[s]++
	}
	for s, c := range counts {
		if c == 0 {
			t.Fatalf("shard %d received no keys: %v", s, counts)
		}
	}
	if NewRanges(3).OwnerOf("abc") != NewRanges(3).OwnerOf("abc") {
		t.Fatal("unstable string partition")
	}
	if NewRanges(1).OwnerOf(int64(42)) != 0 {
		t.Fatal("single shard must own everything")
	}
}

func TestPointQueryRoutesToOwningShard(t *testing.T) {
	ref, r := newFixture(t, 3)
	const q = "select name, grp from users where uid = ?"
	for i := int64(0); i < 100; i++ {
		want, wantErr := ref.Exec(query.Req("q", q, []any{i})).Pair()
		got, gotErr := r.Exec(query.Req("q", q, []any{i})).Pair()
		same(t, fmt.Sprintf("uid=%d", i), want, got, wantErr, gotErr)
	}
	// Point queries must not fan out: exactly one backend round trip each.
	if n := r.Stats().NetRequests; n != 100 {
		t.Fatalf("expected 100 round trips for 100 point queries, got %d", n)
	}
	var perShard []int64
	var spread int
	for _, b := range r.Backends() {
		q := b.Stats().Queries
		perShard = append(perShard, q)
		if q > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("expected point queries spread over shards, got per-shard queries %v", perShard)
	}
}

func TestScatterRowSelectPreservesGlobalOrder(t *testing.T) {
	ref, r := newFixture(t, 4)
	// grp is not the shard key: matching rows live on several shards and the
	// single-server result interleaves them in insertion (rid) order.
	const q = "select uid, name from users where grp = ?"
	for g := int64(0); g < 20; g++ {
		want, wantErr := ref.Exec(query.Req("q", q, []any{g})).Pair()
		got, gotErr := r.Exec(query.Req("q", q, []any{g})).Pair()
		same(t, fmt.Sprintf("grp=%d", g), want, got, wantErr, gotErr)
		if rows, ok := want.(interp.Rows); !ok || len(rows) == 0 {
			t.Fatalf("grp=%d: degenerate fixture, want non-empty rows", g)
		}
	}
}

func TestScatterAggregates(t *testing.T) {
	ref, r := newFixture(t, 4)
	queries := []string{
		"select count(uid) from users where grp = ?",
		"select sum(uid) from users where grp = ?",
		"select max(uid) from users where grp = ?",
		"select min(uid) from users where grp = ?",
	}
	for _, q := range queries {
		for _, g := range []int64{0, 7, 19, 99} { // 99 matches nothing
			want, wantErr := ref.Exec(query.Req("q", q, []any{g})).Pair()
			got, gotErr := r.Exec(query.Req("q", q, []any{g})).Pair()
			same(t, fmt.Sprintf("%s g=%d", q, g), want, got, wantErr, gotErr)
		}
	}
	// Predicate-free full scans scatter too.
	for _, q := range []string{
		"select count(uid) from users",
		"select sum(grp) from users",
	} {
		want, wantErr := ref.Exec(query.Req("q", q, nil)).Pair()
		got, gotErr := r.Exec(query.Req("q", q, nil)).Pair()
		same(t, q, want, got, wantErr, gotErr)
	}
}

func TestRoutedInsertAndReadBack(t *testing.T) {
	ref, r := newFixture(t, 3)
	const ins = "insert into users values (?, ?, ?)"
	const sel = "select name from users where uid = ?"
	for i := int64(1000); i < 1020; i++ {
		args := []any{i, fmt.Sprintf("new%d", i), int64(3)}
		want, wantErr := ref.Exec(query.Req("ins", ins, args)).Pair()
		got, gotErr := r.Exec(query.Req("ins", ins, args)).Pair()
		same(t, "insert", want, got, wantErr, gotErr)
	}
	var total int
	for _, b := range r.Backends() {
		total += b.(*server.Server).Catalog().Table("users").NumRows()
	}
	if total != ref.Catalog().Table("users").NumRows() {
		t.Fatalf("sharded row total %d != single-server %d", total,
			ref.Catalog().Table("users").NumRows())
	}
	for i := int64(1000); i < 1020; i++ {
		want, wantErr := ref.Exec(query.Req("q", sel, []any{i})).Pair()
		got, gotErr := r.Exec(query.Req("q", sel, []any{i})).Pair()
		same(t, fmt.Sprintf("readback uid=%d", i), want, got, wantErr, gotErr)
	}
	// Scatter reads see the runtime-inserted rows in exact insertion order:
	// the grp=3 result now interleaves loaded rows with the new ones (which
	// landed on different shards), and the router's insert trace must merge
	// them where a single server would.
	want, wantErr := ref.Exec(query.Req("q", "select uid, name from users where grp = ?", []any{int64(3)})).Pair()
	got, gotErr := r.Exec(query.Req("q", "select uid, name from users where grp = ?", []any{int64(3)})).Pair()
	same(t, "scatter after inserts", want, got, wantErr, gotErr)
}

func TestReplicatedTableBroadcastsWritesAndReadsLocally(t *testing.T) {
	ref, r := newFixture(t, 3)
	want, wantErr := ref.Exec(query.Req("ins", "insert into logs values (?, ?)", []any{int64(100), "hello"})).Pair()
	got, gotErr := r.Exec(query.Req("ins", "insert into logs values (?, ?)", []any{int64(100), "hello"})).Pair()
	same(t, "replicated insert", want, got, wantErr, gotErr)
	for s, b := range r.Backends() {
		if n := b.(*server.Server).Catalog().Table("logs").NumRows(); n != 41 {
			t.Fatalf("shard %d: replicated logs has %d rows, want 41", s, n)
		}
	}
	want, wantErr = ref.Exec(query.Req("q", "select msg from logs where id = ?", []any{int64(100)})).Pair()
	got, gotErr = r.Exec(query.Req("q", "select msg from logs where id = ?", []any{int64(100)})).Pair()
	same(t, "replicated read", want, got, wantErr, gotErr)
}

func TestExecBatchSplitsAndDemultiplexesInOrder(t *testing.T) {
	ref, r := newFixture(t, 4)
	const q = "select name, grp from users where uid = ?"
	rng := rand.New(rand.NewSource(11))
	argSets := make([][]any, 64)
	for i := range argSets {
		argSets[i] = []any{int64(rng.Intn(500))}
	}
	wantVals, wantErrs := ref.ExecBatch(query.BatchReq("q", q, argSets)).Pair()
	gotVals, gotErrs := r.ExecBatch(query.BatchReq("q", q, argSets)).Pair()
	if len(gotVals) != len(argSets) || len(gotErrs) != len(argSets) {
		t.Fatalf("batch result arity: %d vals, %d errs", len(gotVals), len(gotErrs))
	}
	for i := range argSets {
		same(t, fmt.Sprintf("binding %d", i), wantVals[i], gotVals[i], wantErrs[i], gotErrs[i])
	}
	// The batch must split into at most one sub-batch per shard, in parallel:
	// round trips paid == number of shards hit, not number of bindings.
	agg := r.Stats()
	if agg.Batches < 2 || agg.Batches > int64(len(r.Backends())) {
		t.Fatalf("expected 2..%d per-shard sub-batches, got %d", len(r.Backends()), agg.Batches)
	}
	if agg.NetRequests != agg.Batches {
		t.Fatalf("round trips %d != sub-batches %d", agg.NetRequests, agg.Batches)
	}
}

func TestExecBatchScatterBindings(t *testing.T) {
	ref, r := newFixture(t, 3)
	// grp is not the shard key, so every binding scatter-gathers; results
	// still demultiplex back into binding order.
	const q = "select uid from users where grp = ?"
	argSets := [][]any{{int64(3)}, {int64(99)}, {int64(3)}, {int64(17)}}
	wantVals, wantErrs := ref.ExecBatch(query.BatchReq("q", q, argSets)).Pair()
	gotVals, gotErrs := r.ExecBatch(query.BatchReq("q", q, argSets)).Pair()
	for i := range argSets {
		same(t, fmt.Sprintf("scatter binding %d", i), wantVals[i], gotVals[i], wantErrs[i], gotErrs[i])
	}
}

func TestErrorTextsMatchSingleServer(t *testing.T) {
	ref, r := newFixture(t, 3)
	cases := []struct {
		label string
		sql   string
		args  []any
	}{
		{"parse error", "delete from users", nil},
		{"unknown table", "select a from nosuch where a = ?", []any{int64(1)}},
		{"unknown column", "select nope from users where uid = ?", []any{int64(1)}},
		{"unknown where column", "select name from users where nope = ?", []any{int64(1)}},
		{"param count", "select name from users where uid = ?", nil},
		{"insert arity", "insert into users values (?)", []any{int64(1)}},
	}
	for _, c := range cases {
		want, wantErr := ref.Exec(query.Req("q", c.sql, c.args)).Pair()
		got, gotErr := r.Exec(query.Req("q", c.sql, c.args)).Pair()
		if wantErr == nil {
			t.Fatalf("%s: fixture expected an error", c.label)
		}
		same(t, c.label, want, got, wantErr, gotErr)
	}
	// Batch path: malformed statements fail every binding with the same text.
	wantVals, wantErrs := ref.ExecBatch(query.BatchReq("q", "select a from nosuch where a = ?", [][]any{{int64(1)}, {int64(2)}})).Pair()
	gotVals, gotErrs := r.ExecBatch(query.BatchReq("q", "select a from nosuch where a = ?", [][]any{{int64(1)}, {int64(2)}})).Pair()
	for i := range wantErrs {
		same(t, fmt.Sprintf("batch err %d", i), wantVals[i], gotVals[i], wantErrs[i], gotErrs[i])
	}
}

func TestStatsAggregateAndWarm(t *testing.T) {
	_, r := newFixture(t, 2)
	r.ColdStart()
	r.Warm()
	if _, err := r.Exec(query.Req("q", "select name from users where uid = ?", []any{int64(1)})).Pair(); err != nil {
		t.Fatal(err)
	}
	agg := r.Stats()
	if agg.Queries != 1 || agg.NetRequests != 1 {
		t.Fatalf("aggregate stats: %+v", agg)
	}
	per := r.Backends()
	if len(per) != 2 {
		t.Fatalf("want 2 shards, got %d", len(per))
	}
	var q int64
	for _, b := range per {
		q += b.Stats().Queries
	}
	if q != agg.Queries {
		t.Fatalf("per-shard queries %d != aggregate %d", q, agg.Queries)
	}
	// Warm pools answer the point query without disk reads.
	if agg.Disk.PagesRead != 0 {
		t.Fatalf("warm read hit the disk: %+v", agg.Disk)
	}
}

// TestScatterMergeEdgeCases pins the merge identities: zero-match scatters,
// aggregates over zero rows, and a sharded table that is entirely empty.
func TestScatterMergeEdgeCases(t *testing.T) {
	ref, r := newFixture(t, 4)
	queries := []struct {
		sql  string
		args []any
	}{
		// grp=999 matches nothing anywhere: empty row merge, empty aggregates.
		{"select uid, name from users where grp = ?", []any{int64(999)}},
		{"select count(uid) from users where grp = ?", []any{int64(999)}},
		{"select sum(uid) from users where grp = ?", []any{int64(999)}},
		{"select max(uid) from users where grp = ?", []any{int64(999)}},
		{"select min(uid) from users where grp = ?", []any{int64(999)}},
		// The empty table holds zero rows on every shard.
		{"select eid, tag from empty", nil},
		{"select count(eid) from empty", nil},
		{"select sum(eid) from empty", nil},
		{"select max(eid) from empty", nil},
		{"select min(eid) from empty", nil},
		{"select tag from empty where eid = ?", []any{int64(1)}},
	}
	for _, q := range queries {
		want, wantErr := ref.Exec(query.Req("q", q.sql, q.args)).Pair()
		got, gotErr := r.Exec(query.Req("q", q.sql, q.args)).Pair()
		same(t, q.sql, want, got, wantErr, gotErr)
	}
	// Batch over the empty table: every binding merges the identity.
	argSets := [][]any{{int64(1)}, {int64(2)}, {int64(3)}}
	wantVals, wantErrs := ref.ExecBatch(query.BatchReq("q", "select count(eid) from empty where eid = ?", argSets)).Pair()
	gotVals, gotErrs := r.ExecBatch(query.BatchReq("q", "select count(eid) from empty where eid = ?", argSets)).Pair()
	for i := range argSets {
		same(t, fmt.Sprintf("empty batch %d", i), wantVals[i], gotVals[i], wantErrs[i], gotErrs[i])
	}
}

// TestDuplicateShardKeyInserts pins duplicate-key routing: rows sharing a
// shard key land on one shard, and point reads, scatter reads and
// aggregates see them in exact single-server insertion order.
func TestDuplicateShardKeyInserts(t *testing.T) {
	ref, r := newFixture(t, 3)
	const ins = "insert into users values (?, ?, ?)"
	// uid 77 already exists from the load; insert two more copies, plus a
	// duplicate pair for a brand-new uid.
	dups := [][]any{
		{int64(77), "dup1", int64(901)},
		{int64(77), "dup2", int64(901)},
		{int64(5000), "dup3", int64(901)},
		{int64(5000), "dup4", int64(901)},
	}
	for _, args := range dups {
		want, wantErr := ref.Exec(query.Req("ins", ins, args)).Pair()
		got, gotErr := r.Exec(query.Req("ins", ins, args)).Pair()
		same(t, "dup insert", want, got, wantErr, gotErr)
	}
	for _, q := range []struct {
		sql  string
		args []any
	}{
		{"select name, grp from users where uid = ?", []any{int64(77)}},
		{"select name, grp from users where uid = ?", []any{int64(5000)}},
		{"select uid, name from users where grp = ?", []any{int64(901)}},
		{"select count(uid) from users where uid = ?", []any{int64(77)}},
	} {
		want, wantErr := ref.Exec(query.Req("q", q.sql, q.args)).Pair()
		got, gotErr := r.Exec(query.Req("q", q.sql, q.args)).Pair()
		same(t, q.sql, want, got, wantErr, gotErr)
		if rows, ok := want.(interp.Rows); ok && len(rows) < 2 {
			t.Fatalf("%s: degenerate fixture, want >= 2 rows, got %d", q.sql, len(rows))
		}
	}
}

// TestBatchedInsertsKeepScatterOrder pins the batched-insert position trace
// (ExecBatchTraced.InsertRids): after a batch insert lands rows on several
// shards, a scatter read interleaves them exactly as one server that
// applied the bindings in binding order.
func TestBatchedInsertsKeepScatterOrder(t *testing.T) {
	ref, r := newFixture(t, 4)
	const ins = "insert into users values (?, ?, ?)"
	argSets := make([][]any, 24)
	for i := range argSets {
		argSets[i] = []any{int64(2000 + i), fmt.Sprintf("b%d", i), int64(555)}
	}
	wantVals, wantErrs := ref.ExecBatch(query.BatchReq("ins", ins, argSets)).Pair()
	gotVals, gotErrs := r.ExecBatch(query.BatchReq("ins", ins, argSets)).Pair()
	for i := range argSets {
		same(t, fmt.Sprintf("batch insert %d", i), wantVals[i], gotVals[i], wantErrs[i], gotErrs[i])
	}
	// The scatter read's merge order is the single server's insertion order.
	want, wantErr := ref.Exec(query.Req("q", "select uid, name from users where grp = ?", []any{int64(555)})).Pair()
	got, gotErr := r.Exec(query.Req("q", "select uid, name from users where grp = ?", []any{int64(555)})).Pair()
	same(t, "scatter after batched inserts", want, got, wantErr, gotErr)
	if rows := want.(interp.Rows); len(rows) != len(argSets) {
		t.Fatalf("degenerate fixture: %d rows", len(rows))
	}
}

// TestReplicatedBackendsMatchSingleServer runs the fixture battery over a
// router whose shards are replica groups (Options.Replicas), including
// mid-test replica failures, and pins every result to the single server.
func TestReplicatedBackendsMatchSingleServer(t *testing.T) {
	ref := server.New(server.SYS1(), 0)
	t.Cleanup(ref.Close)
	users := ref.Catalog().CreateTable("users", storage.NewSchema(
		storage.Column{Name: "uid", Type: storage.TInt},
		storage.Column{Name: "name", Type: storage.TString},
		storage.Column{Name: "grp", Type: storage.TInt},
	))
	users.SetRowsPerPage(8)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		if _, err := users.Insert([]any{int64(i), fmt.Sprintf("u%d", i), int64(rng.Intn(20))}); err != nil {
			t.Fatal(err)
		}
	}
	ref.FinishLoad()
	if err := ref.AddIndex("users", "uid", true); err != nil {
		t.Fatal(err)
	}
	r := newRouter(t, ref, Options{Shards: 3, Keys: map[string]string{"users": "uid"}, Group: replica.Options{Replicas: 2}})

	groups := r.Groups()
	if len(groups) != 3 {
		t.Fatalf("expected 3 replica groups, got %v", groups)
	}
	if cs := groups[0].Copies(); len(cs) != 3 {
		t.Fatalf("Copies shape: %d copies per shard, want primary + 2 replicas", len(cs))
	}

	battery := func(label string) {
		t.Helper()
		for i := int64(0); i < 40; i++ {
			want, wantErr := ref.Exec(query.Req("q", "select name, grp from users where uid = ?", []any{i * 13 % 600})).Pair()
			got, gotErr := r.Exec(query.Req("q", "select name, grp from users where uid = ?", []any{i * 13 % 600})).Pair()
			same(t, fmt.Sprintf("%s point uid=%d", label, i*13%600), want, got, wantErr, gotErr)
		}
		for g := int64(0); g < 8; g++ {
			want, wantErr := ref.Exec(query.Req("q", "select uid, name from users where grp = ?", []any{g})).Pair()
			got, gotErr := r.Exec(query.Req("q", "select uid, name from users where grp = ?", []any{g})).Pair()
			same(t, fmt.Sprintf("%s scatter grp=%d", label, g), want, got, wantErr, gotErr)
		}
		want, wantErr := ref.Exec(query.Req("q", "select sum(uid) from users", nil)).Pair()
		got, gotErr := r.Exec(query.Req("q", "select sum(uid) from users", nil)).Pair()
		same(t, label+" sum", want, got, wantErr, gotErr)
	}

	battery("healthy")

	// Writes replicate: insert through the router, read through replicas.
	for i := int64(600); i < 620; i++ {
		args := []any{i, fmt.Sprintf("n%d", i), int64(3)}
		want, wantErr := ref.Exec(query.Req("ins", "insert into users values (?, ?, ?)", args)).Pair()
		got, gotErr := r.Exec(query.Req("ins", "insert into users values (?, ?, ?)", args)).Pair()
		same(t, "replicated routed insert", want, got, wantErr, gotErr)
	}
	battery("after inserts")

	// Kill one replica of every group mid-workload: reads fail over with no
	// result change.
	for _, g := range groups {
		g.Replicas()[0].FailNext(1)
	}
	battery("replica 0 down")
	for _, g := range groups {
		healthy := g.Healthy()
		if healthy[0] {
			t.Fatal("faulted replica still in rotation")
		}
	}
	// Recover and fail the other replica instead.
	for _, g := range groups {
		if err := g.Recover(0); err != nil {
			t.Fatalf("recover: %v", err)
		}
		g.FailOut(1)
	}
	battery("replica 1 down, 0 rejoined")

	// The rejoined replicas hold the writes they missed while down.
	var reads [][]int64
	for _, g := range r.Groups() {
		reads = append(reads, g.ReadCounts())
	}
	if len(reads) != 3 {
		t.Fatalf("read counts shape: %v", reads)
	}
}

// path: a scatter whose equality predicate is on a secondary-indexed column
// consults per-shard index key statistics and skips shards holding no
// matching keys — without changing any result. Queries on unindexed columns
// still fan out to every shard.
func TestScatterPrunesBySecondaryIndexStats(t *testing.T) {
	ref, r := newFixture(t, 4)

	// Create a group that lives on exactly one shard: uids owned by shard 2.
	var uids []int64
	for i := int64(10000); len(uids) < 3; i++ {
		if r.Ranges().OwnerOf(i) == 2 {
			uids = append(uids, i)
		}
	}
	const ins = "insert into users values (?, ?, ?)"
	for _, uid := range uids {
		args := []any{uid, fmt.Sprintf("u%d", uid), int64(777)}
		if _, err := ref.Exec(query.Req("ins", ins, args)).Pair(); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Exec(query.Req("ins", ins, args)).Pair(); err != nil {
			t.Fatal(err)
		}
	}

	netReqs := func() []int64 {
		out := make([]int64, 0, 4)
		for _, b := range r.Backends() {
			out = append(out, b.Stats().NetRequests)
		}
		return out
	}

	// grp is secondary-indexed and grp=777 exists only on shard 2: the
	// scatter must visit shard 2 alone.
	before := netReqs()
	const q = "select name, grp from users where grp = ?"
	want, wantErr := ref.Exec(query.Req("q", q, []any{int64(777)})).Pair()
	got, gotErr := r.Exec(query.Req("q", q, []any{int64(777)})).Pair()
	same(t, "grp=777", want, got, wantErr, gotErr)
	after := netReqs()
	for s := 0; s < 4; s++ {
		delta := after[s] - before[s]
		switch {
		case s == 2 && delta != 1:
			t.Fatalf("owning shard 2 got %d requests, want 1", delta)
		case s != 2 && delta != 0:
			t.Fatalf("shard %d executed a pruned scatter (%d requests)", s, delta)
		}
	}

	// A key no shard holds prunes down to one representative execution and
	// still returns the single-server (empty) result.
	before = after
	want, wantErr = ref.Exec(query.Req("q", q, []any{int64(888)})).Pair()
	got, gotErr = r.Exec(query.Req("q", q, []any{int64(888)})).Pair()
	same(t, "grp=888", want, got, wantErr, gotErr)
	after = netReqs()
	var total int64
	for s := 0; s < 4; s++ {
		total += after[s] - before[s]
	}
	if total != 1 {
		t.Fatalf("all-pruned scatter paid %d executions, want 1", total)
	}

	// An aggregate over the pruned predicate merges identically too.
	want, wantErr = ref.Exec(query.Req("q", "select count(uid) from users where grp = ?", []any{int64(777)})).Pair()
	got, gotErr = r.Exec(query.Req("q", "select count(uid) from users where grp = ?", []any{int64(777)})).Pair()
	same(t, "count grp=777", want, got, wantErr, gotErr)

	// name is unindexed: no statistics, no pruning — every shard executes.
	before = netReqs()
	want, wantErr = ref.Exec(query.Req("q", "select uid from users where name = ?", []any{"u1"})).Pair()
	got, gotErr = r.Exec(query.Req("q", "select uid from users where name = ?", []any{"u1"})).Pair()
	same(t, "name=u1", want, got, wantErr, gotErr)
	after = netReqs()
	for s := 0; s < 4; s++ {
		if after[s]-before[s] != 1 {
			t.Fatalf("unindexed scatter must fan out: shard %d delta %d", s, after[s]-before[s])
		}
	}

	if r.ScatterPruned() == 0 {
		t.Fatal("planner recorded no pruned executions")
	}
}

// TestPrunedScatterLeavesOwnersAlone: the owner list is computed once per
// range snapshot and shared by every scatter; pruning narrows a copy. Scatters
// that prune to a subset, to one representative and not at all must leave the
// snapshot's list as it was.
func TestPrunedScatterLeavesOwnersAlone(t *testing.T) {
	ref, r := newFixture(t, 4)
	rg := r.Ranges()
	before := slices.Clone(rg.Owners())
	if !slices.Equal(before, []int{0, 1, 2, 3}) {
		t.Fatalf("owners of a fresh 4-way map: %v", before)
	}
	for _, q := range []struct {
		sql  string
		args []any
	}{
		{"select uid from users where grp = ?", []any{int64(3)}},   // prunes to the shards holding grp 3
		{"select uid from users where grp = ?", []any{int64(888)}}, // prunes to one representative
		{"select uid from users where name = ?", []any{"u1"}},      // no statistics: no pruning
		{"select uid from users where grp = ? and uid = ?", []any{int64(3), int64(-1)}},
	} {
		want, wantErr := ref.Exec(query.Req("q", q.sql, q.args)).Pair()
		got, gotErr := r.Exec(query.Req("q", q.sql, q.args)).Pair()
		same(t, q.sql, want, got, wantErr, gotErr)
		if after := rg.Owners(); !slices.Equal(after, before) {
			t.Fatalf("%s: snapshot owners %v, were %v", q.sql, after, before)
		}
	}
	if a, b := rg.Owners(), rg.Owners(); &a[0] != &b[0] {
		t.Fatal("Owners must hand out the snapshot's list, not build one per call")
	}
}

// statCounting counts the index-statistics peeks the scatter planner makes.
type statCounting struct {
	Backend
	peeks *int
}

func (b statCounting) IndexKeyCount(table, col string, v any) (int, bool) {
	*b.peeks++
	return b.Backend.IndexKeyCount(table, col, v)
}

// TestScatterPeeksEachOwnerOnce: the planner learns whether a column is
// indexed from the first owner's key count, not from a separate probe of
// backend 0 — one peek per owner for an indexed predicate, one in all for an
// unindexed one.
func TestScatterPeeksEachOwnerOnce(t *testing.T) {
	ref, _ := newFixture(t, 1)
	peeks := 0
	backends := make([]Backend, 3)
	for i := range backends {
		backends[i] = statCounting{server.New(server.SYS1(), 0), &peeks}
	}
	r := NewWithBackends(backends, fixtureKeys())
	t.Cleanup(r.Close)
	if err := r.LoadFrom(ref); err != nil {
		t.Fatal(err)
	}
	for _, q := range []struct {
		sql  string
		arg  any
		want int
	}{
		{"select uid from users where grp = ?", int64(3), 3},
		{"select uid from users where grp = ?", int64(888), 3},
		{"select uid from users where name = ?", "u1", 1},
	} {
		peeks = 0
		want, wantErr := ref.Exec(query.Req("q", q.sql, []any{q.arg})).Pair()
		got, gotErr := r.Exec(query.Req("q", q.sql, []any{q.arg})).Pair()
		same(t, q.sql, want, got, wantErr, gotErr)
		if peeks != q.want {
			t.Errorf("%s (%v): %d statistics peeks, want %d", q.sql, q.arg, peeks, q.want)
		}
	}
}

// publicOnly is a backend that offers the router only the public Exec and
// ExecBatch, as a tracing shim or a test fake does (embedding the interface
// hides the server's Do): its row results arrive boxed.
type publicOnly struct{ Backend }

// TestScatterMergesBoxedAndColumnarLegs: a leg that answers in interp.Rows is
// lifted into the one merge, next to legs that answer columnar — whose column
// order (the select list's) differs from a lifted leg's (by name).
func TestScatterMergesBoxedAndColumnarLegs(t *testing.T) {
	ref, _ := newFixture(t, 1)
	backends := []Backend{
		publicOnly{server.New(server.SYS1(), 0)},
		server.New(server.SYS1(), 0),
		publicOnly{server.New(server.SYS1(), 0)},
	}
	r := NewWithBackends(backends, fixtureKeys())
	t.Cleanup(r.Close)
	if err := r.LoadFrom(ref); err != nil {
		t.Fatal(err)
	}
	for _, q := range []struct {
		sql  string
		args []any
	}{
		{"select uid, name from users where grp = ?", []any{int64(5)}},
		{"select name, uid, name from users where grp = ?", []any{int64(5)}},
		{"select * from users where grp = ?", []any{int64(11)}},
		{"select * from users", nil},
		{"select uid from users where grp = ?", []any{int64(999)}},
		{"select eid, tag from empty", nil},
		{"select count(uid) from users where grp = ?", []any{int64(5)}},
		{"select nosuch from users where grp = ?", []any{int64(5)}},
	} {
		want, wantErr := ref.Exec(query.Req("q", q.sql, q.args)).Pair()
		got, gotErr := r.Exec(query.Req("q", q.sql, q.args)).Pair()
		same(t, q.sql, want, got, wantErr, gotErr)
	}
	argSets := [][]any{{int64(5)}, {int64(999)}, {int64(0)}}
	const q = "select name, uid from users where grp = ?"
	wantVals, wantErrs := ref.ExecBatch(query.BatchReq("q", q, argSets)).Pair()
	gotVals, gotErrs := r.ExecBatch(query.BatchReq("q", q, argSets)).Pair()
	for i := range argSets {
		same(t, fmt.Sprintf("batch binding %d", i), wantVals[i], gotVals[i], wantErrs[i], gotErrs[i])
	}
}

// A table created behind the router's back after LoadFrom is one the router
// does not know: its inserts route to shard 0 like any unknown table's, and
// neither shape may try to note their positions. (A batch insert once
// dereferenced the missing routing metadata.)
func TestInsertIntoUnknownTable(t *testing.T) {
	_, r := newFixture(t, 2)
	for _, b := range r.Backends() {
		for _, s := range b.Copies() {
			s.Catalog().CreateTable("late", storage.NewSchema(
				storage.Column{Name: "id", Type: storage.TInt},
				storage.Column{Name: "msg", Type: storage.TString},
			))
		}
	}
	const ins = "insert into late values (?, ?)"
	if err := r.Exec(query.Req("ins", ins, []any{int64(1), "a"})).Err; err != nil {
		t.Fatalf("single insert: %v", err)
	}
	_, errs := r.ExecBatch(query.BatchReq("ins", ins, [][]any{{int64(2), "b"}, {int64(3), "c"}})).Pair()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("batch insert binding %d: %v", i, err)
		}
	}
	if got := r.Exec(query.Req("q", "select count(id) from late", nil)).Value; got != int64(3) {
		t.Fatalf("late holds %v rows, want 3", got)
	}
}

// A binding whose reply slot holds an error was not acknowledged, whatever
// rid the backend reported for it: a replica group fails a committed
// binding's slot when the commit wait fails and leaves its InsertRids entry.
func TestInsertedRidNeedsAnAcknowledgement(t *testing.T) {
	rep := &query.Reply{
		Values: []any{nil, int64(1)},
		Errs:   []error{fmt.Errorf("commit wait failed"), nil},
		Info:   sqlmini.ExecInfo{InsertRids: []int{5, 6}},
	}
	if rid, ok := insertedRid(rep, 0); ok {
		t.Fatalf("failed binding reports rid %d", rid)
	}
	if rid, ok := insertedRid(rep, 1); !ok || rid != 6 {
		t.Fatalf("acknowledged binding reports rid %d, %v; want 6, true", rid, ok)
	}
}

// A single call is routed as a batch of one binding: for every statement
// class, Exec on one router and ExecBatch of the same binding on an
// identically loaded one answer alike and leave the routers alike.
func TestSingleCallIsABatchOfOne(t *testing.T) {
	_, single := newFixture(t, 3)
	_, batch := newFixture(t, 3)
	cases := []struct {
		label string
		sql   string
		args  []any
	}{
		{"keyed point select", "select name, grp from users where uid = ?", []any{int64(42)}},
		{"fresh-key insert", "insert into users values (?, ?, ?)", []any{int64(9001), "fresh", int64(7)}},
		{"keyed read of the insert", "select name from users where uid = ?", []any{int64(9001)}},
		{"pruned scatter", "select uid from users where grp = ?", []any{int64(99)}},
		{"unpruned scatter", "select uid, name from users where grp = ?", []any{int64(7)}},
		{"unindexed scatter", "select uid from users where name = ?", []any{"u17"}},
		{"aggregate", "select sum(uid) from users where grp = ?", []any{int64(7)}},
		{"replicated read", "select msg from logs where id = ?", []any{int64(3)}},
		{"replicated insert", "insert into logs values (?, ?)", []any{int64(400), "late"}},
		{"malformed", "delete from users", nil},
		{"unknown table", "select a from nosuch where a = ?", []any{int64(1)}},
		{"insert arity", "insert into users values (?)", []any{int64(1)}},
	}
	for _, c := range cases {
		want, wantErr := single.Exec(query.Req("q", c.sql, c.args)).Pair()
		vals, errs := batch.ExecBatch(query.BatchReq("q", c.sql, [][]any{c.args})).Pair()
		if len(vals) != 1 || len(errs) != 1 {
			t.Fatalf("%s: batch of one answered %d values, %d errors", c.label, len(vals), len(errs))
		}
		same(t, c.label, want, vals[0], wantErr, errs[0])
	}
	if s, b := single.ScatterPruned(), batch.ScatterPruned(); s != b || s == 0 {
		t.Fatalf("pruned shard executions: single %d, batch %d (want equal and non-zero)", s, b)
	}
	const all = "select uid, name, grp from users"
	want, wantErr := single.Exec(query.Req("q", all, nil)).Pair()
	got, gotErr := batch.Exec(query.Req("q", all, nil)).Pair()
	same(t, "scatter over users", want, got, wantErr, gotErr)
}
