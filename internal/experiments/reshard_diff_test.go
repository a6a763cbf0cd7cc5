package experiments

// The re-sharding differential harness: the seeded random workload from the
// replica suite, driven against a single reference server and a hash-range
// sharded router while a Split migration runs in the middle of the
// workload — with traffic executing during the copy phase and during the
// pre-flip window — asserting byte-identical results (values and error
// text) op by op. A crash variant kills the moving shard's primary between
// copy and flip, pinning that acknowledged writes survive a migration whose
// source dies at the worst moment.
//
// Seeds honor ASYNCQ_SEED; with it unset the seed comes from the clock and
// is logged, so any failure reproduces by exporting the variable.

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/interp"
	"repro/internal/query"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/shard"
)

// reshardSeed resolves and logs the suite's seed.
func reshardSeed(t *testing.T) int64 {
	seed := apps.SeedFromEnv(0)
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	t.Logf("workload seed %d (reproduce with: ASYNCQ_SEED=%d go test -run %s ./internal/experiments/)", seed, seed, t.Name())
	return seed
}

// reshardOut renders one execution outcome byte-comparably.
func reshardOut(v any, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return "ok: " + interp.Format(v)
}

// reshardChunker runs seeded workload chunks against the reference server
// and the router, failing on the first byte-level divergence.
type reshardChunker struct {
	t    *testing.T
	seed int64
	ref  *server.Server
	rt   *shard.Router
	rng  *rand.Rand
	opNo int
}

// run executes n freshly generated ops on both sides.
func (c *reshardChunker) run(label string, n int) {
	c.t.Helper()
	// Generate against the current reference state: later chunks chase rows
	// this workload inserted, across whatever ranges have moved since.
	for _, op := range apps.RandomWorkload(c.ref, n, c.rng) {
		c.opNo++
		if op.Batch() {
			wantVals, wantErrs := c.ref.ExecBatch(query.BatchReq("w", op.SQL, op.ArgSets)).Pair()
			gotVals, gotErrs := c.rt.ExecBatch(query.BatchReq("w", op.SQL, op.ArgSets)).Pair()
			for j := range op.ArgSets {
				want := reshardOut(wantVals[j], wantErrs[j])
				got := reshardOut(gotVals[j], gotErrs[j])
				if want != got {
					c.t.Fatalf("seed %d op %d (%s) %q binding %d:\n  cluster: %s\n  single:  %s",
						c.seed, c.opNo, label, op.SQL, j, got, want)
				}
			}
			continue
		}
		wantV, wantErr := c.ref.Exec(query.Req("w", op.SQL, op.ArgSets[0])).Pair()
		gotV, gotErr := c.rt.Exec(query.Req("w", op.SQL, op.ArgSets[0])).Pair()
		want, got := reshardOut(wantV, wantErr), reshardOut(gotV, gotErr)
		if want != got {
			c.t.Fatalf("seed %d op %d (%s) %q:\n  cluster: %s\n  single:  %s",
				c.seed, c.opNo, label, op.SQL, got, want)
		}
	}
}

// orchestrate runs mig on a goroutine and pauses it at each phase boundary
// ("copy" — before rows are copied, ranges still routing to the source —
// and "flip" — copy done, routing not yet switched), calling during(phase)
// with the migration frozen there so workload traffic interleaves with a
// live migration deterministically.
func orchestrate(t *testing.T, rt *shard.Router, mig func() error, during func(phase string)) {
	t.Helper()
	step := make(chan string)
	resume := make(chan struct{})
	rt.SetMigrationHook(func(phase string) {
		step <- phase
		<-resume
	})
	defer rt.SetMigrationHook(nil)
	errc := make(chan error, 1)
	go func() { errc <- mig() }()
	for _, want := range []string{"copy", "flip"} {
		select {
		case phase := <-step:
			if phase != want {
				t.Fatalf("migration phase %q, want %q", phase, want)
			}
			during(phase)
			resume <- struct{}{}
		case err := <-errc:
			t.Fatalf("migration ended before phase %q: %v", want, err)
		}
	}
	if err := <-errc; err != nil {
		t.Fatalf("migration: %v", err)
	}
}

// TestReshardDifferential drives every evaluation app's random workload
// against a 3-shard hash-range router while a Split runs mid-workload, with
// traffic during both migration phases. Every op must match the single
// reference server byte for byte: reads never observe a partial move and
// writes acknowledged during the migration are neither lost nor duplicated.
func TestReshardDifferential(t *testing.T) {
	seed := reshardSeed(t)
	nOps := 240
	if testing.Short() {
		nOps = 96
	}
	var totalStaged, totalRowsCopied int64
	for ai, app := range apps.All() {
		app, ai := app, ai
		t.Run(app.Name, func(t *testing.T) {
			ref := server.New(server.SYS1(), 0)
			t.Cleanup(ref.Close)
			if err := app.Setup(ref, apps.SeededRand()); err != nil {
				t.Fatalf("setup: %v", err)
			}
			rt := shard.New(server.SYS1(), 0, shard.Options{Shards: 3, Keys: app.ShardKeys})
			t.Cleanup(rt.Close)
			if err := rt.LoadFrom(ref); err != nil {
				t.Fatalf("load: %v", err)
			}

			c := &reshardChunker{t: t, seed: seed, ref: ref, rt: rt,
				rng: rand.New(rand.NewSource(seed + int64(ai)*1_000_003))}

			c.run("pre-split", nOps/4)

			// Split shard 0 mid-workload, with a chunk of traffic in each
			// phase: backend 3 appears and takes over the upper half of 0's
			// range. The double-write counter is held to the router's
			// contract: one staged write per insert the source acknowledged
			// between the barrier and the flip — not an insert routed to
			// another shard, not one the source rejected. (A replicated-table
			// insert is acknowledged by the source once and staged once.)
			source := rt.Backends()[0] // retired at the flip: read it while it is live
			before := source.Stats().Inserts
			stagedBefore := rt.MigrationStats().DoubleWrites
			var acked int64
			orchestrate(t, rt, func() error { return rt.Split(0) }, func(phase string) {
				c.run("during split "+phase, nOps/16)
				if phase == "flip" {
					acked = source.Stats().Inserts - before
				}
			})
			staged := rt.MigrationStats().DoubleWrites - stagedBefore
			if staged != acked {
				t.Fatalf("seed %d: %d inserts double-written, but the migrating source acknowledged %d during the window",
					seed, staged, acked)
			}
			totalStaged += staged
			if got := rt.Shards(); got != 4 {
				t.Fatalf("shards after split: %d, want 4", got)
			}
			if got := len(rt.Ranges().Owners()); got != 4 {
				t.Fatalf("owners after split: %d, want 4", got)
			}

			c.run("post-split", nOps-nOps/4-2*(nOps/16))
			t.Logf("%d ops", c.opNo)

			st := rt.MigrationStats()
			if st.Splits != 1 || st.Generation != 1 {
				t.Fatalf("migration stats %+v: want 1 split, generation 1", st)
			}
			if st.RowsCopied == 0 {
				t.Fatalf("migration stats %+v: no row was copied; migration untested", st)
			}
			totalRowsCopied += st.RowsCopied
		})
	}
	if totalRowsCopied == 0 {
		t.Fatalf("seed %d: no rows copied across any app", seed)
	}
	// Whether any insert lands on a migrating source inside a window is the
	// seed's doing, not the router's: say so instead of passing or failing
	// the double-write claim on a run that never exercised it.
	if totalStaged == 0 {
		t.Logf("seed %d: no migrating source took an insert in any window; double-write replay ran empty", seed)
	}
}

// TestReshardDifferentialCrashMidMigration splits a shard whose backends
// are WAL-durable replica groups and crashes the moving shard's primary in
// the window between copy and flip. The migration must still complete —
// the flip applies staged double-writes from its own materialized copies,
// never re-reading the source — and every subsequent op must match the
// single server byte for byte: no acknowledged write is lost or duplicated
// by a migration whose source dies mid-flight.
func TestReshardDifferentialCrashMidMigration(t *testing.T) {
	seed := reshardSeed(t)
	nOps := 160
	if testing.Short() {
		nOps = 80
	}
	app := apps.RUBiS()
	ref := server.New(server.SYS1(), 0)
	t.Cleanup(ref.Close)
	if err := app.Setup(ref, apps.SeededRand()); err != nil {
		t.Fatalf("setup: %v", err)
	}
	rt := shard.New(server.SYS1(), 0, shard.Options{
		Shards: 2, Keys: app.ShardKeys, Group: replica.Options{Replicas: 1},
	})
	t.Cleanup(rt.Close)
	if err := rt.LoadFrom(ref); err != nil {
		t.Fatalf("load: %v", err)
	}
	groups := rt.Groups()
	if groups == nil {
		t.Fatal("router reports no groups")
	}

	c := &reshardChunker{t: t, seed: seed, ref: ref, rt: rt,
		rng: rand.New(rand.NewSource(seed + 404_404_404))}

	c.run("pre-split", nOps/4)

	// Writes the source acknowledges during the copy phase are the ones at
	// risk: they exist on the source primary (about to crash) and in the
	// staged double-write buffer (which must carry them through the flip).
	// Exactly those are staged — not inserts routed to the other shard, not
	// rejected ones — so the counter must equal the source primary's own
	// insert count over the window (Group.Stats would sum both copies), read
	// before the crash takes the primary away.
	srcBefore := groups[0].Primary().Stats().Inserts
	var srcAcked int64
	orchestrate(t, rt, func() error { return rt.Split(0) }, func(phase string) {
		switch phase {
		case "copy":
			c.run("during copy", nOps/4)
		case "flip":
			// Copy done, routing not yet flipped: kill the source primary.
			srcAcked = groups[0].Primary().Stats().Inserts - srcBefore
			groups[0].CrashPrimary()
		}
	})
	if got := rt.Shards(); got != 3 {
		t.Fatalf("shards after split: %d, want 3", got)
	}

	// The crashed group was replaced wholesale at the flip; the rest of the
	// workload — reads chasing every row inserted before and during the
	// migration — must still match the single server exactly.
	c.run("post-crash", nOps/2)

	st := rt.MigrationStats()
	if st.Splits != 1 || st.RowsCopied == 0 {
		t.Fatalf("migration stats %+v: split did not move data", st)
	}
	if st.DoubleWrites != srcAcked {
		t.Fatalf("seed %d: %d inserts double-written, but the source primary acknowledged %d during the copy phase",
			seed, st.DoubleWrites, srcAcked)
	}
	if srcAcked == 0 {
		t.Logf("seed %d: no insert landed on the migrating source in the copy window; crash case ran without staged writes", seed)
	}
}
