package replica_test

// One conformance table over every door a copy of a shard's data comes
// through — the initial load, a migration's replacements, a replica caught up
// from the log or rebuilt from a snapshot, a restarted primary. Whatever the
// door, the same assertion follows: every copy of every
// shard holds, table for table and rid for rid, what a single reference
// server filtered to that shard's ownership holds, and a scatter over the
// cluster returns the reference's row order.

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/query"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/wal"
)

const (
	doorUsers = 120
	doorGrps  = 7
	insUser   = "insert into users values (?, ?, ?)"
	insLog    = "insert into logs values (?, ?)"
)

// flakySync is a MemStore whose fsync can be made to fail, so a write can be
// caught between its synchronous replication and its durability.
type flakySync struct {
	*wal.MemStore
	fail atomic.Bool
}

func (s *flakySync) Sync() error {
	if s.fail.Load() {
		return errors.New("injected fsync failure")
	}
	return s.MemStore.Sync()
}

// doors is one cluster under conformance test: a reference server, a router
// over two replica groups loaded from it, and the test-side reference form of
// the copier — rows[table][shard], what each shard must hold, in rid order.
type doors struct {
	t      *testing.T
	seed   int64
	rng    *rand.Rand
	ref    *server.Server
	rt     *shard.Router
	stores []*flakySync // one per group ever built, in construction order
	rows   map[string][][][]any
	nextID int64
	// pending, when set, collects written rows instead of placing them: a
	// migration's double-writes, placed under the next map once it is known.
	pending *[]written
}

type written struct {
	table string
	row   []any
}

// newDoors builds case number ci's cluster; seed is the suite's (the one a
// failure prints and -seed replays), the case draws from seed+ci.
func newDoors(t *testing.T, seed int64, ci int) *doors {
	d := &doors{t: t, seed: seed, rng: rand.New(rand.NewSource(seed + int64(ci))), nextID: 10_000}
	d.ref = server.New(server.SYS1(), 0)
	t.Cleanup(d.ref.Close)
	users := d.ref.Catalog().CreateTable("users", storage.NewSchema(
		storage.Column{Name: "uid", Type: storage.TInt},
		storage.Column{Name: "grp", Type: storage.TInt},
		storage.Column{Name: "name", Type: storage.TString},
	))
	users.SetRowsPerPage(8)
	for i := 0; i < doorUsers; i++ {
		uid := int64(d.rng.Intn(1 << 20))
		if _, err := users.Insert([]any{uid*doorUsers + int64(i), uid % doorGrps, fmt.Sprintf("u%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	logs := d.ref.Catalog().CreateTable("logs", storage.NewSchema(
		storage.Column{Name: "id", Type: storage.TInt},
		storage.Column{Name: "msg", Type: storage.TString},
	))
	for i := 0; i < 10; i++ {
		if _, err := logs.Insert([]any{int64(i), fmt.Sprintf("m%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	d.ref.FinishLoad()
	for _, ix := range []struct {
		tbl, col string
		unique   bool
	}{{"users", "uid", true}, {"users", "grp", false}, {"logs", "id", true}} {
		if err := d.ref.AddIndex(ix.tbl, ix.col, ix.unique); err != nil {
			t.Fatal(err)
		}
	}

	mk := func() shard.Backend {
		st := &flakySync{MemStore: wal.NewMemStore()}
		d.stores = append(d.stores, st)
		return replica.NewGroup(server.SYS1(), 0, replica.Options{Replicas: 2, Store: st})
	}
	d.rt = shard.NewWithBackends([]shard.Backend{mk(), mk()}, map[string]string{"users": "uid"})
	d.rt.SetBackendFactory(mk)
	t.Cleanup(d.rt.Close)
	if err := d.rt.LoadFrom(d.ref); err != nil {
		t.Fatal(err)
	}
	// The reference form of LoadFrom: every reference row, in rid order, to
	// its key's owner — or to every shard for a replicated table.
	rg := d.rt.Ranges()
	d.rows = map[string][][][]any{"users": make([][][]any, 2), "logs": make([][][]any, 2)}
	for _, ts := range wal.Capture(d.ref.Catalog(), 0).Tables {
		for _, row := range rowsOf(&ts.View) {
			d.place(rg, ts.Name, row)
		}
	}
	return d
}

// rowsOf boxes a captured table's rows, the form the reference keeps.
func rowsOf(v *storage.View) [][]any {
	rows := [][]any{}
	for rid := 0; rid < v.NumRows; rid++ {
		row := make([]any, len(v.Cols))
		for i := range v.Cols {
			row[i] = v.Cols[i].Any(rid)
		}
		rows = append(rows, row)
	}
	return rows
}

// place appends one row where the ownership rule puts it.
func (d *doors) place(rg *shard.Ranges, table string, row []any) {
	for s := range d.rows[table] {
		if table == "logs" || rg.OwnerOf(row[0]) == s {
			d.rows[table][s] = append(d.rows[table][s], row)
		}
	}
}

func (d *doors) groups() []*replica.Group {
	gs := d.rt.Groups()
	if gs == nil {
		d.t.Fatal("router reports no groups")
	}
	return gs
}

// write acknowledges n fresh rows (one in four a replicated-table row)
// through the router and the reference alike, and records where each belongs.
func (d *doors) write(n int) {
	d.t.Helper()
	for i := 0; i < n; i++ {
		d.nextID++
		table, sql := "users", insUser
		row := []any{d.nextID*7919 + int64(d.rng.Intn(7919)), d.nextID % doorGrps, fmt.Sprintf("w%d", d.nextID)}
		if i%4 == 3 {
			table, sql, row = "logs", insLog, []any{d.nextID, fmt.Sprintf("l%d", d.nextID)}
		}
		want := fmtOut(d.ref.Exec(query.Req("w", sql, row)).Pair())
		if got := fmtOut(d.rt.Exec(query.Req("w", sql, row)).Pair()); got != want {
			d.t.Fatalf("seed %d: insert %v: cluster %s, single %s", d.seed, row, got, want)
		}
		if d.pending != nil {
			*d.pending = append(*d.pending, written{table, row})
		} else {
			d.place(d.rt.Ranges(), table, row)
		}
	}
}

// check is the one assertion every door is followed by.
func (d *doors) check(door string) {
	d.t.Helper()
	want := wal.Capture(d.ref.Catalog(), 0).Tables
	for s, g := range d.groups() {
		for i, a := range g.AppliedLSNs() {
			if a != g.CommitLSN() {
				d.t.Fatalf("seed %d, %s: shard %d replica %d applied LSN %d, commit LSN %d", d.seed, door, s, i, a, g.CommitLSN())
			}
		}
		for c, srv := range g.Copies() {
			got := wal.Capture(srv.Catalog(), 0).Tables
			if len(got) != len(want) {
				d.t.Fatalf("seed %d, %s: shard %d copy %d holds %d tables, reference %d", d.seed, door, s, c, len(got), len(want))
			}
			for k := range want {
				g, w := got[k], want[k]
				gotRows, wantRows := rowsOf(&g.View), d.rows[w.Name][s]
				if len(wantRows) == 0 {
					wantRows = [][]any{}
				}
				g.View, w.View = storage.View{}, storage.View{}
				if !reflect.DeepEqual(g, w) || !reflect.DeepEqual(gotRows, wantRows) {
					d.t.Fatalf("seed %d, %s: shard %d copy %d table %s differs from the reference filtered to its ownership:\n got %+v %v\nwant %+v %v",
						d.seed, door, s, c, w.Name, g, gotRows, w, wantRows)
				}
			}
		}
	}
	for grp := int64(0); grp < doorGrps; grp++ {
		req := query.Req("q", "select uid, name from users where grp = ?", []any{grp})
		if got, want := fmtOut(d.rt.Exec(req).Pair()), fmtOut(d.ref.Exec(req).Pair()); got != want {
			d.t.Fatalf("seed %d, %s: scatter grp=%d out of reference order:\n got %s\nwant %s", d.seed, door, grp, got, want)
		}
	}
	req := query.Req("q", "select msg from logs where id = ?", []any{d.nextID})
	if got, want := fmtOut(d.rt.Exec(req).Pair()), fmtOut(d.ref.Exec(req).Pair()); got != want {
		d.t.Fatalf("seed %d, %s: replicated read: got %s want %s", d.seed, door, got, want)
	}
}

// migrateUnderWrites runs one migration with acknowledged writes landing in
// its copy phase, so the replacements are built from both the bulk copy and
// the double-write buffer. copied is the reference form of the bulk copy:
// it moves the model's rows (as they stood at the barrier) to where the
// migration puts them; the double-writes follow in capture order.
func (d *doors) migrateUnderWrites(migrate func() error, copied func(next *shard.Ranges)) {
	d.t.Helper()
	var pending []written
	d.rt.SetMigrationHook(func(phase string) {
		if phase == "copy" {
			d.pending = &pending
			d.write(8)
			d.pending = nil
		}
	})
	if err := migrate(); err != nil {
		d.t.Fatal(err)
	}
	d.rt.SetMigrationHook(nil)
	for table := range d.rows {
		for len(d.rows[table]) < d.rt.Shards() {
			d.rows[table] = append(d.rows[table], nil)
		}
	}
	copied(d.rt.Ranges())
	for _, w := range pending {
		d.place(d.rt.Ranges(), w.table, w.row)
	}
}

func TestDifferentialCopyDoors(t *testing.T) {
	seed := workloadSeed(t)
	recoverAll := func(d *doors, g *replica.Group) {
		d.t.Helper()
		for i := range g.Replicas() {
			if err := g.Recover(i); err != nil {
				d.t.Fatalf("seed %d: recover %d: %v", d.seed, i, err)
			}
		}
	}
	cases := []struct {
		name string
		door func(d *doors)
	}{
		{"LoadFrom", func(d *doors) {}},
		{"Split destination", func(d *doors) {
			d.migrateUnderWrites(func() error { return d.rt.Split(0) }, func(next *shard.Ranges) {
				// Reference form: shard 0's rows, in order, to their next owner.
				old := d.rows["users"][0]
				d.rows["users"][0] = nil
				for _, row := range old {
					o := next.OwnerOf(row[0])
					d.rows["users"][o] = append(d.rows["users"][o], row)
				}
				d.rows["logs"][2] = append([][]any(nil), d.rows["logs"][0]...)
			})
		}},
		{"Recover by suffix", func(d *doors) {
			g := d.groups()[0]
			g.FailOut(0)
			d.write(12)
			recoverAll(d, g)
		}},
		{"Recover by snapshot (truncated)", func(d *doors) {
			g := d.groups()[0]
			g.FailOut(1)
			d.write(12)
			if err := g.Checkpoint(); err != nil {
				d.t.Fatal(err)
			}
			d.write(12) // a suffix past the snapshot to replay as well
			recoverAll(d, g)
		}},
		{"Recover by snapshot (tainted)", func(d *doors) {
			// A write caught between synchronous replication and durability:
			// the replicas applied it, the crash drops it, nobody was told it
			// committed — so it is in neither the reference nor the model.
			g, st := d.groups()[0], d.stores[0]
			lost := []any{int64(-1), int64(0), "lost"}
			for d.rt.Ranges().OwnerOf(lost[0]) != 0 {
				lost[0] = lost[0].(int64) - 1
			}
			st.fail.Store(true)
			done := make(chan error, 1)
			go func() { done <- g.Exec(query.Req("w", insUser, lost)).Err }()
			for commit := g.CommitLSN(); g.AppliedLSNs()[0] <= commit || g.AppliedLSNs()[1] <= commit; {
				time.Sleep(100 * time.Microsecond)
			}
			g.CrashPrimary()
			st.fail.Store(false)
			if err := <-done; !errors.Is(err, replica.ErrPrimaryDown) {
				d.t.Fatalf("the write the crash dropped reported %v, want ErrPrimaryDown", err)
			}
			if h := g.Healthy(); h[0] || h[1] {
				d.t.Fatalf("replicas ahead of the durable prefix must be tainted out: %v", h)
			}
			if err := g.RestartPrimary(); err != nil {
				d.t.Fatal(err)
			}
			recoverAll(d, g)
		}},
		{"RestartPrimary", func(d *doors) {
			for _, g := range d.groups() {
				g.CrashPrimary()
				if err := g.RestartPrimary(); err != nil {
					d.t.Fatal(err)
				}
			}
		}},
		{"RestartPrimary after a checkpoint", func(d *doors) {
			g := d.groups()[1]
			if err := g.Checkpoint(); err != nil {
				d.t.Fatal(err)
			}
			d.write(12)
			g.CrashPrimary()
			if err := g.RestartPrimary(); err != nil {
				d.t.Fatal(err)
			}
		}},
	}
	for ci, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := newDoors(t, seed, ci)
			d.write(16)
			c.door(d)
			d.check(c.name)
			d.write(16) // the copy keeps up with what comes after its door
			d.check(c.name + ", then writes")
		})
	}
}

// TestDifferentialPrimaryCrashRecoveryFileStore is the crash-recovery
// differential — one app is enough, the encoding does not depend on it —
// over groups whose logs live in wal.FileStores, and then a cold start from
// the directories alone: each shard's state rebuilt from the
// on-disk snapshot.json + wal.log (a second handle on the directory, as a
// restarted process would open it) must equal the live primary's.
func TestDifferentialPrimaryCrashRecoveryFileStore(t *testing.T) {
	dirs := map[*replica.Group]string{}
	var suffix int   // records replayed past a snapshot, over all shards
	var snapAt int64 // newest snapshot LSN restored from
	runPrimaryCrashRecovery(t, []*apps.App{apps.RUBiS()}, func(t *testing.T, shards int, keys map[string]string) *shard.Router {
		backends := make([]shard.Backend, shards)
		for i := range backends {
			dir := t.TempDir()
			st, err := wal.NewFileStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			g := replica.NewGroup(server.SYS1(), 0, replica.Options{Replicas: 1, Store: st})
			backends[i], dirs[g] = g, dir
		}
		return shard.NewWithBackends(backends, keys)
	}, func(t *testing.T, groups []*replica.Group) {
		for i, g := range groups {
			st, err := wal.NewFileStore(dirs[g])
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			snap, recs, err := st.Load()
			if err != nil || snap == nil {
				t.Fatalf("shard %d: cold load: snapshot %v, err %v", i, snap, err)
			}
			cold := server.New(server.SYS1(), 0)
			defer cold.Close()
			if err := snap.RestoreTo(cold); err != nil {
				t.Fatal(err)
			}
			for _, r := range recs {
				if err := firstNonNil(cold.ExecBatch(r.Request()).Errs); err != nil {
					t.Fatalf("shard %d: cold replay of LSN %d: %v", i, r.LSN, err)
				}
			}
			got, want := wal.Capture(cold.Catalog(), 0), wal.Capture(g.Primary().Catalog(), 0)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("shard %d: state rebuilt from %s differs from the live primary", i, dirs[g])
			}
			suffix, snapAt = suffix+len(recs), max(snapAt, snap.LSN)
		}
	})
	if suffix == 0 || snapAt == 0 {
		t.Fatalf("no cold start replayed a suffix past a mid-log snapshot (newest snapshot LSN %d, %d records)", snapAt, suffix)
	}
}
