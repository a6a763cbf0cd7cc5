package experiments

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/query"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/wal"
)

// DurabilityMeasurement is one (mode, threads) data point: acknowledged
// insert throughput of a replica group under a WAL commit-acknowledgement
// mode. The WAL counters record how the mode earned its number — strict pays
// one fsync per record, group shares fsyncs across concurrent commits, off
// acknowledges before any fsync.
type DurabilityMeasurement struct {
	Mode    string
	Threads int
	Inserts int
	// Seconds is the simulated time until every insert was acknowledged.
	Seconds    float64
	Throughput float64 // acknowledged inserts per simulated second
	Syncs      int64
	AvgGroup   float64 // records per fsync (the amortization evidence)
}

// speedScore ranks repeated measurements for BestOf.
func (m DurabilityMeasurement) speedScore() float64 { return m.Throughput }

// insertSQL is the storm's statement: one acknowledged row into
// events(id, val).
const insertSQL = "insert into events values (?, ?)"

// eventsGroup is the durability and tail-latency figures' shared fixture: a
// one-replica synchronous group whose WAL runs in mode, holding an empty,
// warmed events(id, val) table indexed on id.
func (h *Harness) eventsGroup(prof server.Profile, mode wal.Mode) (*replica.Group, error) {
	// The seek-only disk model underprices fsync: a real log write also
	// waits for the platter to bring the target sector under the head
	// (~4ms on the paper-era drives), and that rotational settle is the
	// cost group commit exists to amortize. Charge it here so the policy
	// spread is the device's, not the model's; every other figure keeps
	// the settle-free device.
	prof.Disk.WriteSettle = 4 * time.Millisecond
	g := replica.NewGroup(prof, h.Scale, replica.Options{Replicas: 1, Durability: mode})
	if err := LoadPointTable(g.Copies(), "events", 0); err != nil {
		g.Close()
		return nil, err
	}
	g.Warm()
	return g, nil
}

// insertStorm is the figures' shared driver: `threads` concurrent clients
// draw ids 1..inserts from one counter and each waits for its own insert's
// acknowledgement before drawing the next; a client stops at its first
// error, and the clients' errors come back joined.
func insertStorm(threads, inserts int, insert func(args []any) error) error {
	var next atomic.Int64
	errs := make([]error, threads)
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				id := next.Add(1)
				if id > int64(inserts) {
					return
				}
				if errs[w] = insert([]any{id, fmt.Sprintf("e%d", id)}); errs[w] != nil {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// MeasureDurability times `inserts` acknowledged single-row inserts issued
// by `threads` concurrent clients against a one-replica group whose WAL runs
// in `mode`. Every acknowledgement honors the mode's contract — strict and
// group return only after the record's fsync, off returns immediately — so
// the throughput spread is exactly the price of the durability guarantee.
func (h *Harness) MeasureDurability(prof server.Profile, mode wal.Mode,
	threads, inserts int) (DurabilityMeasurement, error) {

	m := DurabilityMeasurement{Mode: mode.String(), Threads: threads, Inserts: inserts}
	g, err := h.eventsGroup(prof, mode)
	if err != nil {
		return m, err
	}
	defer g.Close()

	start := time.Now()
	err = insertStorm(threads, inserts, func(args []any) error {
		return g.Exec(query.Req("d", insertSQL, args)).Err
	})
	elapsed := time.Since(start).Seconds()
	if err != nil {
		return m, err
	}
	if h.Scale > 0 {
		elapsed /= h.Scale
	}
	m.Seconds = elapsed
	if elapsed > 0 {
		m.Throughput = float64(inserts) / elapsed
	}
	st := g.WALStats()
	m.Syncs, m.AvgGroup = st.Syncs, st.AvgGroup()
	return m, nil
}

// walModes is the fsync-policy sweep of the durability and tail-latency
// figures: all three commit modes, or only Harness.Durability when set.
func (h *Harness) walModes() ([]wal.Mode, error) {
	if h.Durability == "" {
		return []wal.Mode{wal.Off, wal.Group, wal.Strict}, nil
	}
	m, err := wal.ParseMode(h.Durability)
	return []wal.Mode{m}, err
}

// FigDurability — acknowledged insert throughput vs fsync policy as client
// concurrency grows (the durability experiment beyond the paper: group
// commit is the write-side sibling of the paper's batched submission — one
// disk round trip amortized over every commit that arrived while the
// previous fsync was in flight). Expected shape: `strict` pays one WAL write
// per insert and stays flat; `group` starts at strict's cost and converges
// toward `off` as concurrency gives each fsync more passengers; `off` prices
// the guarantee-free upper bound.
func (h *Harness) FigDurability() (*Figure, error) {
	threads := h.pick([]int{1, 2, 5, 10, 20, 30}, []int{1, 5, 10})
	inserts := h.iters(1200, 200)
	f := &Figure{
		ID:     "Durability A",
		Title:  "Per-shard WAL: acknowledged insert throughput vs fsync policy",
		XLabel: "Number of client threads",
		YLabel: "Throughput (inserts/sec)",
	}
	modes, err := h.walModes()
	if err != nil {
		return nil, err
	}
	var lastGroup DurabilityMeasurement
	for _, mode := range modes {
		s := Series{Label: fmt.Sprintf("Durability: %s", mode)}
		for _, th := range threads {
			best, err := BestOf(3, DurabilityMeasurement.speedScore, func() (DurabilityMeasurement, error) {
				return h.MeasureDurability(server.SYS1(), mode, th, inserts)
			})
			if err != nil {
				return nil, fmt.Errorf("durability %s threads=%d: %w", mode, th, err)
			}
			s.Points = append(s.Points, Point{X: th, Y: best.Throughput})
			if mode == wal.Group {
				lastGroup = best
			}
		}
		f.Series = append(f.Series, s)
	}
	f.Notes = append(f.Notes,
		fmt.Sprintf("Database: %s, Inserts: %d, Replicas: 1 (sync)", server.SYS1().Name, inserts))
	if lastGroup.Inserts > 0 {
		f.Notes = append(f.Notes,
			fmt.Sprintf("Group commit at %d threads: %d fsyncs for %d inserts (%.1f records/fsync)",
				lastGroup.Threads, lastGroup.Syncs, lastGroup.Inserts, lastGroup.AvgGroup))
	}
	return f, nil
}
