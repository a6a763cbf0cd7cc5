package experiments

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/net"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/storage"
)

// loadReshardTable loads the reshard figure's working set into ref: a keyed
// table at a few rows per page, so random point reads over it touch far
// more pages than the figure's deliberately tiny buffer pool holds and the
// per-shard disk is the bottleneck — the regime where splitting a hot
// shard genuinely adds capacity.
func loadReshardTable(ref *server.Server, rows, groups int) error {
	schema := storage.NewSchema(
		storage.Column{Name: "id", Type: storage.TInt},
		storage.Column{Name: "grp", Type: storage.TInt},
		storage.Column{Name: "val", Type: storage.TString},
	)
	if err := ref.CreateTable("load", schema, 8); err != nil {
		return err
	}
	for i := 1; i <= rows; i++ {
		if err := ref.InsertRow("load", []any{int64(i), int64(i % groups), fmt.Sprintf("v%d", i)}); err != nil {
			return err
		}
	}
	ref.FinishLoad()
	return ref.AddIndex("load", "id", true)
}

// reshardProfile is SYS1 with the IO path made the bottleneck: a single
// slow spindle and a buffer pool far smaller than the working set, so
// nearly every point read rides the per-backend disk queue. Unlike CPU
// scan work — whose real host cost scales with the simulated cost and so
// depends on host parallelism — a queued page fault is almost pure
// simulated time, which keeps the capacity story faithful on any host.
func reshardProfile() server.Profile {
	p := server.SYS1()
	p.BufferPages = 64
	p.Disk.Spindles = 1
	p.Disk.TransferPerPage = 400 * time.Microsecond
	return p
}

// FigReshard — throughput timeline across a live hot-shard split. A
// closed-loop mixed workload (random point reads plus a trickle of
// inserts) drives a single hot disk-bound shard; a third of the way in,
// Split moves half its hash range onto a new backend while traffic keeps
// flowing — rows copied concurrently, acknowledged inserts double-written,
// routing flipped atomically under the migration barrier. The property
// under test is elasticity without downtime: the timeline may dip briefly
// around the flip but every window makes progress, no request fails, and
// sustained post-split throughput exceeds the pre-split plateau because
// each backend now serves half the key space with its own disk.
func (h *Harness) FigReshard() (*Figure, error) {
	const (
		rows    = 20000
		groups  = 50
		clients = 16
		seed    = 20110411
	)
	dur := 3 * time.Second
	windows := 24
	if h.Quick {
		dur = 1200 * time.Millisecond
		windows = 12
	}
	winDur := dur / time.Duration(windows)
	splitAt := windows / 3

	prof := reshardProfile()
	ref := server.New(prof, h.Scale)
	defer ref.Close()
	if err := loadReshardTable(ref, rows, groups); err != nil {
		return nil, fmt.Errorf("reshard: load: %w", err)
	}
	rt := shard.New(prof, h.Scale, shard.Options{
		Shards: 1, Keys: map[string]string{"load": "id"},
	})
	defer rt.Close()
	if err := rt.LoadFrom(ref); err != nil {
		return nil, fmt.Errorf("reshard: partition: %w", err)
	}
	rt.Warm()

	// The timeline's progress signal is a counter Next bumps: server-side
	// Stats() restart from zero on the backends a migration replaces. A
	// window therefore counts requests issued, which in a closed loop runs at
	// most `clients` ahead of requests answered — and a cluster stalled for
	// a whole window issues nothing in it, so "progress in every window"
	// holds what it held. The sampler starts a goroutine launch ahead of the
	// workers; a Target is not dialled.
	var ops, nextID atomic.Int64
	nextID.Store(10_000_000) // insert keys disjoint from the loaded rows
	load := net.LoadOptions{
		Target: rt,
		Conns:  clients,
		// One spare window, so the last sampled one is driven to its end.
		Duration: dur + winDur,
		Seed:     seed,
		Next: func(rng *rand.Rand) query.Request {
			ops.Add(1)
			if rng.Intn(10) == 0 {
				id := nextID.Add(1)
				return query.Req("reshard", "insert into load values (?, ?, ?)",
					[]any{id, int64(rng.Intn(groups)), fmt.Sprintf("w%d", id)})
			}
			return query.Req("reshard", "select val from load where id = ?",
				[]any{int64(1 + rng.Intn(rows))})
		},
	}

	// Sample the timeline beside the load; at the splitAt boundary kick off
	// the migration on its own goroutine so the copy, double-write, and flip
	// phases all land inside the measured windows.
	rates := make([]float64, 0, windows)
	gens := make([]int64, 0, windows)
	splitErr := make(chan error, 1)
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		prev := int64(0)
		for wnd := 0; wnd < windows; wnd++ {
			if wnd == splitAt {
				go func() { splitErr <- rt.Split(0) }()
			}
			time.Sleep(winDur)
			cur := ops.Load()
			rates = append(rates, float64(cur-prev)/winDur.Seconds())
			gens = append(gens, rt.Ranges().Generation())
			prev = cur
		}
	}()
	rep, err := net.RunLoad(load)
	<-sampled
	if err := <-splitErr; err != nil {
		return nil, fmt.Errorf("reshard: split: %w", err)
	}

	// Elasticity without downtime: nothing failed, every window made
	// progress, and the post-split plateau sits above the pre-split one.
	if err == nil {
		err = rep.Check()
	}
	if err != nil {
		return nil, fmt.Errorf("reshard: during the timeline (seed %d): %w", seed, err)
	}
	mean := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	for i, r := range rates {
		if r <= 0 {
			return nil, fmt.Errorf("reshard: window %d served nothing: the split stalled the cluster", i)
		}
	}
	pre := mean(rates[:splitAt])
	post := mean(rates[len(rates)-windows/3:])
	if post <= pre*1.1 {
		return nil, fmt.Errorf("reshard: post-split throughput %.0f req/s not above pre-split %.0f req/s", post, pre)
	}
	st := rt.MigrationStats()
	if st.Splits != 1 || st.RowsCopied == 0 {
		return nil, fmt.Errorf("reshard: migration stats %+v: split moved no data", st)
	}

	f := &Figure{
		ID:     "Reshard",
		Title:  "Throughput timeline across a live hot-shard split",
		XLabel: "Window",
		YLabel: "Throughput (req/s) / range-map generation",
	}
	thr := Series{Label: "throughput req/s"}
	gen := Series{Label: "generation"}
	for i, r := range rates {
		thr.Points = append(thr.Points, Point{X: i, Y: r})
		gen.Points = append(gen.Points, Point{X: i, Y: float64(gens[i])})
	}
	f.Series = []Series{thr, gen}
	f.Notes = append(f.Notes,
		fmt.Sprintf("Database: %s (1 spindle, %d-page pool), %d rows, %d closed-loop workers (90%% point reads / 10%% inserts), seed %d",
			prof.Name, prof.BufferPages, rows, clients, seed),
		fmt.Sprintf("Split launched at window %d of %d (%v windows); generation %d after flip",
			splitAt, windows, winDur, st.Generation),
		fmt.Sprintf("Migration: %d rows copied, %d double-written inserts, %d shards after split",
			st.RowsCopied, st.DoubleWrites, rt.Shards()),
		fmt.Sprintf("Pre-split mean %.0f req/s, post-split mean %.0f req/s (%.2fx); zero failed requests",
			pre, post, post/pre),
		"Every window makes progress across copy, double-write, and flip: the dip is bounded and capacity rises after the split")
	return f, nil
}
