package shard

import (
	"fmt"
	"testing"

	"repro/internal/query"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/storage"
)

// applyBoth runs one statement on the reference server and the router and
// asserts identical results — the migration tests' step-by-step
// differential check.
func applyBoth(t *testing.T, ref *server.Server, r *Router, label, sql string, args []any) {
	t.Helper()
	want, wantErr := ref.Exec(query.Req("q", sql, args)).Pair()
	got, gotErr := r.Exec(query.Req("q", sql, args)).Pair()
	same(t, label, want, got, wantErr, gotErr)
}

// compareAll sweeps the fixture's read surface — point queries, indexed and
// unindexed scatters, aggregates, replicated reads — asserting the router
// is observably identical to the single server.
func compareAll(t *testing.T, ref *server.Server, r *Router, label string) {
	t.Helper()
	for i := int64(0); i < 60; i++ {
		applyBoth(t, ref, r, fmt.Sprintf("%s point uid=%d", label, i),
			"select name, grp from users where uid = ?", []any{i * 9})
	}
	for g := int64(0); g < 21; g++ {
		applyBoth(t, ref, r, fmt.Sprintf("%s scatter grp=%d", label, g),
			"select uid, name from users where grp = ?", []any{g})
		applyBoth(t, ref, r, fmt.Sprintf("%s count grp=%d", label, g),
			"select count(uid) from users where grp = ?", []any{g})
	}
	applyBoth(t, ref, r, label+" full count", "select count(uid) from users", nil)
	applyBoth(t, ref, r, label+" full sum", "select sum(grp) from users", nil)
	applyBoth(t, ref, r, label+" unindexed", "select uid from users where name = ?", []any{"u33"})
	applyBoth(t, ref, r, label+" replicated", "select msg from logs where id = ?", []any{int64(7)})
	applyBoth(t, ref, r, label+" empty table", "select count(eid) from empty", nil)
}

// numRows is a backend's (authoritative copy's) row count for a table.
func numRows(b Backend, table string) int { return catalog(b).Table(table).NumRows() }

// assertConservation checks the anti-loss/anti-duplication ledger: summed
// across every backend, each sharded table holds exactly the reference row
// count (a lost write sums low, a duplicated one sums high), and every
// backend holds the full replicated tables.
func assertConservation(t *testing.T, ref *server.Server, r *Router, label string) {
	t.Helper()
	for _, tbl := range []string{"users", "empty"} {
		want := numRows(ref, tbl)
		got := 0
		for _, b := range r.Backends() {
			got += numRows(b, tbl)
		}
		if got != want {
			t.Fatalf("%s: %s rows across shards = %d, reference has %d (lost or duplicated writes)",
				label, tbl, got, want)
		}
	}
	for i, b := range r.Backends() {
		if got, want := numRows(b, "logs"), numRows(ref, "logs"); got != want {
			t.Fatalf("%s: backend %d holds %d logs rows, want %d", label, i, got, want)
		}
	}
}

// migrationKeys returns count fresh uids (starting at base) owned by one of
// the given shards under the router's current range map — deterministic
// traffic aimed at a migration's source shards.
func migrationKeys(r *Router, base int64, shards []int, count int) []int64 {
	want := map[int]bool{}
	for _, s := range shards {
		want[s] = true
	}
	rg := r.Ranges()
	var out []int64
	for uid := base; len(out) < count; uid++ {
		if want[rg.OwnerOf(uid)] {
			out = append(out, uid)
		}
	}
	return out
}

// orchestrate runs migrate on a goroutine with the router's hook paused at
// the "copy" and "flip" phases, running duringCopy and duringFlip (traffic
// that must be captured by double-write) while the migration is suspended
// there. It returns the migration's error.
func orchestrate(t *testing.T, r *Router, migrate func() error, duringCopy, duringFlip func()) error {
	t.Helper()
	step := make(chan string)
	resume := make(chan struct{})
	r.SetMigrationHook(func(phase string) {
		step <- phase
		<-resume
	})
	defer r.SetMigrationHook(nil)
	done := make(chan error, 1)
	go func() { done <- migrate() }()
	for _, want := range []string{"copy", "flip"} {
		if got := <-step; got != want {
			t.Fatalf("migration hook phase %q, want %q", got, want)
		}
		if want == "copy" && duringCopy != nil {
			duringCopy()
		}
		if want == "flip" && duringFlip != nil {
			duringFlip()
		}
		resume <- struct{}{}
	}
	return <-done
}

func TestSplitUnderTrafficMatchesSingleServer(t *testing.T) {
	ref, r := newFixture(t, 3)
	compareAll(t, ref, r, "pre-split")

	// Traffic aimed at the source shard while the migration is mid-copy and
	// just before the flip: these inserts are acknowledged during the
	// migration and must survive it via the double-write buffer.
	copyKeys := migrationKeys(r, 10_000, []int{1}, 6)
	flipKeys := migrationKeys(r, 20_000, []int{1}, 4)
	insert := func(keys []int64, label string) {
		for _, uid := range keys {
			applyBoth(t, ref, r, fmt.Sprintf("%s insert uid=%d", label, uid),
				"insert into users values (?, ?, ?)", []any{uid, fmt.Sprintf("m%d", uid), uid % 21})
			applyBoth(t, ref, r, fmt.Sprintf("%s readback uid=%d", label, uid),
				"select name from users where uid = ?", []any{uid})
		}
		// A replicated-table write mid-migration broadcasts to the old
		// backends and must be double-written to the replacements.
		applyBoth(t, ref, r, label+" log insert",
			"insert into logs values (?, ?)", []any{keys[0], "mid-migration"})
	}
	err := orchestrate(t, r, func() error { return r.Split(1) },
		func() { insert(copyKeys, "during-copy") },
		func() { insert(flipKeys, "during-flip") })
	if err != nil {
		t.Fatalf("split: %v", err)
	}

	if got := r.Shards(); got != 4 {
		t.Fatalf("shards after split: %d", got)
	}
	rg := r.Ranges()
	if rg.Generation() != 1 {
		t.Fatalf("generation after split: %d", rg.Generation())
	}
	if err := rg.Validate(r.Shards()); err != nil {
		t.Fatal(err)
	}
	ms := r.MigrationStats()
	if ms.Splits != 1 {
		t.Fatalf("migration stats after split: %+v", ms)
	}
	if ms.RowsCopied == 0 {
		t.Fatalf("split copied no rows: %+v", ms)
	}
	// 10 source-shard inserts and 2 replicated inserts ran mid-migration.
	if ms.DoubleWrites < 12 {
		t.Fatalf("expected ≥12 double-writes, got %+v", ms)
	}
	assertConservation(t, ref, r, "post-split")
	compareAll(t, ref, r, "post-split")

	// Routing follows the new generation: fresh inserts land on the new
	// shard's range and read back identically.
	for _, uid := range migrationKeys(r, 30_000, []int{3}, 3) {
		applyBoth(t, ref, r, fmt.Sprintf("post-split insert uid=%d", uid),
			"insert into users values (?, ?, ?)", []any{uid, fmt.Sprintf("p%d", uid), int64(5)})
		applyBoth(t, ref, r, fmt.Sprintf("post-split readback uid=%d", uid),
			"select name from users where uid = ?", []any{uid})
	}
	assertConservation(t, ref, r, "post-split inserts")
}

// emptyFixture builds a reference and router whose only sharded table has
// zero rows — the degenerate migration inputs.
func emptyFixture(t *testing.T, shards int) (*server.Server, *Router) {
	t.Helper()
	ref := server.New(server.SYS1(), 0)
	t.Cleanup(ref.Close)
	ref.Catalog().CreateTable("empty", storage.NewSchema(
		storage.Column{Name: "eid", Type: storage.TInt},
		storage.Column{Name: "tag", Type: storage.TString},
	))
	ref.FinishLoad()
	r := newRouter(t, ref, Options{Shards: shards, Keys: map[string]string{"empty": "eid"}})
	return ref, r
}

func TestSplitShardWhoseRangeHoldsZeroRows(t *testing.T) {
	ref, r := emptyFixture(t, 2)
	if err := r.Split(0); err != nil {
		t.Fatalf("zero-row split: %v", err)
	}
	if got := r.Shards(); got != 3 {
		t.Fatalf("shards after zero-row split: %d", got)
	}
	if ms := r.MigrationStats(); ms.RowsCopied != 0 {
		t.Fatalf("zero-row split copied %d rows", ms.RowsCopied)
	}
	applyBoth(t, ref, r, "post-split scan", "select count(eid) from empty", nil)
	// The split shard's (empty) range still routes inserts correctly.
	for i := int64(0); i < 30; i++ {
		applyBoth(t, ref, r, fmt.Sprintf("post-split insert %d", i),
			"insert into empty values (?, ?)", []any{i, fmt.Sprintf("t%d", i)})
	}
	applyBoth(t, ref, r, "post-insert scan", "select count(eid) from empty", nil)
	assertEmptyConservation(t, ref, r)
}

func assertEmptyConservation(t *testing.T, ref *server.Server, r *Router) {
	t.Helper()
	got := 0
	for _, b := range r.Backends() {
		got += numRows(b, "empty")
	}
	if want := numRows(ref, "empty"); got != want {
		t.Fatalf("empty rows across shards = %d, reference has %d", got, want)
	}
}

// TestSplitDuringScatterKeepsScatterPrunedConsistent pins the pruning
// accounting across a routing flip: every scatter reads one range-map
// snapshot, so a fully-pruned scatter always skips exactly
// (active owners - 1) shards of its own generation — 3 before the split
// flips, 4 after — never a mix.
func TestSplitDuringScatterKeepsScatterPrunedConsistent(t *testing.T) {
	ref, r := newFixture(t, 4)
	const q = "select uid from users where grp = ?"
	scatterBatch := func(label string) {
		t.Helper()
		for i := 0; i < 10; i++ {
			// grp=888 exists nowhere: every shard prunes, one representative
			// remains.
			applyBoth(t, ref, r, label, q, []any{int64(888)})
		}
	}
	scatterBatch("pre-split")
	err := orchestrate(t, r, func() error { return r.Split(2) },
		func() { scatterBatch("during-copy") },
		func() { scatterBatch("during-flip") })
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	scatterBatch("post-split")
	// 30 scatters at 4 active owners (3 pruned each) + 10 at 5 (4 pruned).
	if got, want := r.ScatterPruned(), int64(30*3+10*4); got != want {
		t.Fatalf("ScatterPruned = %d, want %d", got, want)
	}
}

// TestCrashMidMigrationKeepsAcknowledgedWrites crashes the source shard's
// primary between the copy phase and the flip: every write acknowledged
// before or during the migration must survive on the replacement backends,
// none duplicated — the flip replays only materialized double-writes and
// never reads the crashed source.
func TestCrashMidMigrationKeepsAcknowledgedWrites(t *testing.T) {
	ref := server.New(server.SYS1(), 0)
	t.Cleanup(ref.Close)
	users := ref.Catalog().CreateTable("users", storage.NewSchema(
		storage.Column{Name: "uid", Type: storage.TInt},
		storage.Column{Name: "name", Type: storage.TString},
		storage.Column{Name: "grp", Type: storage.TInt},
	))
	users.SetRowsPerPage(8)
	for i := 0; i < 200; i++ {
		if _, err := users.Insert([]any{int64(i), fmt.Sprintf("u%d", i), int64(i % 20)}); err != nil {
			t.Fatal(err)
		}
	}
	ref.FinishLoad()
	if err := ref.AddIndex("users", "uid", true); err != nil {
		t.Fatal(err)
	}
	r := newRouter(t, ref, Options{Shards: 2, Group: replica.Options{Replicas: 1}, Keys: map[string]string{"users": "uid"}})

	copyKeys := migrationKeys(r, 10_000, []int{0}, 5)
	err := orchestrate(t, r, func() error { return r.Split(0) },
		func() {
			for _, uid := range copyKeys {
				applyBoth(t, ref, r, fmt.Sprintf("during-copy insert uid=%d", uid),
					"insert into users values (?, ?, ?)", []any{uid, fmt.Sprintf("m%d", uid), uid % 20})
			}
		},
		func() {
			// Primary of the source shard dies after the copy, before the
			// flip. The migration must complete from captured state alone.
			r.Groups()[0].CrashPrimary()
		})
	if err != nil {
		t.Fatalf("split with crashed source: %v", err)
	}
	if ms := r.MigrationStats(); ms.DoubleWrites < int64(len(copyKeys)) {
		t.Fatalf("expected ≥%d double-writes, got %+v", len(copyKeys), ms)
	}
	for _, tbl := range []string{"users"} {
		want := numRows(ref, tbl)
		got := 0
		for _, b := range r.Backends() {
			got += numRows(b, tbl)
		}
		if got != want {
			t.Fatalf("%s rows across shards = %d, reference has %d (lost or duplicated writes)", tbl, got, want)
		}
	}
	for i := int64(0); i < 200; i += 7 {
		applyBoth(t, ref, r, fmt.Sprintf("post-crash point uid=%d", i),
			"select name, grp from users where uid = ?", []any{i})
	}
	for _, uid := range copyKeys {
		applyBoth(t, ref, r, fmt.Sprintf("post-crash mid-migration uid=%d", uid),
			"select name from users where uid = ?", []any{uid})
	}
	applyBoth(t, ref, r, "post-crash count", "select count(uid) from users", nil)
}

// TestMigrationWithoutFactoryFails pins the NewWithBackends contract: a
// router over caller-supplied backends cannot mint replacements until a
// factory is installed.
func TestMigrationWithoutFactoryFails(t *testing.T) {
	backends := []Backend{server.New(server.SYS1(), 0), server.New(server.SYS1(), 0)}
	r := NewWithBackends(backends, map[string]string{"users": "uid"})
	t.Cleanup(r.Close)
	if err := r.Split(0); err == nil {
		t.Fatal("split without a backend factory must fail")
	}
	r.SetBackendFactory(func() Backend { return server.New(server.SYS1(), 0) })
	if err := r.Split(0); err != nil {
		t.Fatalf("split with installed factory: %v", err)
	}
}
