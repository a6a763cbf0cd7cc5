package experiments

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/wal"
)

// TestTable1 checks the paper's applicability numbers: auction 9/9 (100%),
// bulletin board 6/8 (75%).
func TestTable1(t *testing.T) {
	rows := Table1()
	if len(rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(rows))
	}
	if rows[0].Opportunities != 9 || rows[0].Transformed != 9 {
		t.Errorf("auction: got %d/%d, want 9/9", rows[0].Transformed, rows[0].Opportunities)
	}
	if rows[1].Opportunities != 8 || rows[1].Transformed != 6 {
		t.Errorf("bulletin: got %d/%d, want 6/8", rows[1].Transformed, rows[1].Opportunities)
	}

	// The reordering ablation: how much of the table statement reordering
	// provides. Of the corpus procedures with a transformed site, those none
	// of whose sites needed a reorder would transform without it.
	transformed, withoutReorder := 0, 0
	for _, c := range []*apps.CorpusApp{apps.AuctionCorpus(), apps.BulletinCorpus()} {
		for _, p := range c.Procs {
			rep := core.Analyze(p, core.Options{})
			if rep.TransformedCount() == 0 {
				continue
			}
			transformed++
			reordered := false
			for _, s := range rep.Sites {
				reordered = reordered || s.UsedReorder
			}
			if !reordered {
				withoutReorder++
			}
		}
	}
	if transformed != 15 || withoutReorder != 11 {
		t.Errorf("procedures transformed: %d, %d of them without reordering; want 15, 11", transformed, withoutReorder)
	}
}

// TestAllAppsTransform checks that each evaluation app's kernel transforms.
func TestAllAppsTransform(t *testing.T) {
	for _, app := range apps.All() {
		_, rep, err := core.Transform(app.Proc(), core.Options{Registry: app.Registry()})
		if err != nil {
			t.Errorf("%s: %v", app.Name, err)
			continue
		}
		if rep.TransformedCount() == 0 {
			t.Errorf("%s: no site transformed: %+v", app.Name, rep.Sites)
		}
	}
}

// TestMeasureSmall runs tiny measurements of every app end to end (zero
// scale: no sleeping) and relies on Measure's built-in result comparison.
func TestMeasureSmall(t *testing.T) {
	h := NewHarness()
	h.Scale = 0 // logic only
	defer h.Close()
	cases := []struct {
		app  *apps.App
		prof server.Profile
	}{
		{apps.RUBiS(), server.SYS1()},
		{apps.RUBBoS(), server.Postgres()},
		{apps.Category(), server.SYS1()},
		{apps.Forms(), server.SYS1()},
		{apps.WebServiceApp(), server.WebService()},
	}
	for _, c := range cases {
		runs, err := h.Measure(Config{App: c.app, Profile: c.prof, Threads: 4, Iterations: 25, Warm: true}, Blocking, Async)
		if err != nil {
			t.Errorf("%s: %v", c.app.Name, err)
			continue
		}
		if len(runs) != 2 || runs[1].RoundTrips < 25 {
			t.Errorf("%s: bad measurement %+v", c.app.Name, runs)
		}
	}
}

// TestMeasureDurabilitySmall runs a tiny durability sweep end to end (zero
// scale) and checks the one property that is exact rather than a timing
// shape: strict mode pays one fsync per acknowledged insert, and every mode
// acknowledges every insert.
func TestMeasureDurabilitySmall(t *testing.T) {
	h := NewHarness()
	h.Scale = 0 // logic only
	defer h.Close()
	const inserts = 60
	for _, mode := range []wal.Mode{wal.Off, wal.Group, wal.Strict} {
		m, err := h.storm(server.SYS1(), mode, 4, inserts)
		if err != nil {
			t.Errorf("%s: %v", mode, err)
			continue
		}
		if m.Sent != inserts || m.Completed != inserts || m.ThroughputRPS <= 0 || m.P50Ms <= 0 {
			t.Errorf("%s: bad measurement %+v", mode, m)
		}
		if mode == wal.Strict && m.WAL.Syncs != inserts {
			t.Errorf("strict: %d fsyncs for %d inserts, want one each", m.WAL.Syncs, inserts)
		}
		if mode != wal.Off && m.WAL.Syncs == 0 {
			t.Errorf("%s: no fsync recorded", mode)
		}
	}
}
