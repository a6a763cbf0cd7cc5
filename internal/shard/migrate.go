package shard

import (
	"fmt"
	"sync/atomic"

	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/wal"
)

// This file implements online re-sharding: Router.Split and Router.Merge
// move hash-range ownership between backends while traffic keeps flowing.
//
// Storage is append-only (no row deletion), so a migration never carves
// rows out of a live backend; it builds replacement backends and retires
// the old ones whole. The protocol, for either operation:
//
//  1. Barrier (mig write lock, no statement in flight): take per-table
//     views, cut off at their row counts, of the source shards and arm
//     double-write capture. Every row below a cutoff is a fully
//     acknowledged, position-mapped row; every insert acknowledged after the
//     barrier is captured, as a one-row view, in the pending buffer.
//  2. Copy (no router locks, traffic flowing): build the replacement
//     backends from the cutoff prefixes in one wal.Copy — the sources' DDL
//     order, every row to its owner under the next-generation range map,
//     indexes — then warm them. New backends are invisible to routing.
//  3. Flip (mig write lock again): apply the pending double-writes to the
//     replacements in capture order, splice the replacements into the
//     backend set, install the next-generation range map, disarm capture.
//     Readers drain before the lock and re-route after it, so no statement
//     ever observes a partial move.
//  4. Retire: close the old backends. (A replacement replica group needs no
//     checkpoint: like any bulk-loaded group it snapshots its base state
//     before its first logged write and inside CrashPrimary.)
//
// The flip never asks the source backends for a row — pending rows are views,
// taken at capture, of append-only vectors — so a source primary crash
// between copy and flip cannot lose or duplicate an acknowledged write:
// everything acknowledged before the barrier is below a cutoff, everything
// after is in the pending buffer, and unacknowledged inserts are in neither.

// MigrationStats counts the re-sharding machinery's work to date.
type MigrationStats struct {
	Generation   int64 // range-map generation (Split/Merge steps applied)
	Splits       int64
	Merges       int64
	RangesMoved  int64 // hash ranges that changed owner
	RowsCopied   int64 // rows bulk-copied onto replacement backends
	DoubleWrites int64 // inserts captured and replayed by migrations
}

// MigrationStats returns the router's migration counters.
func (r *Router) MigrationStats() MigrationStats {
	return MigrationStats{
		Generation:   r.ranges.Load().Generation(),
		Splits:       r.splits.Load(),
		Merges:       r.merges.Load(),
		RangesMoved:  r.rangesMoved.Load(),
		RowsCopied:   r.rowsCopied.Load(),
		DoubleWrites: r.doubleWrites.Load(),
	}
}

// SetMigrationHook installs a hook called, with no router locks held, at
// two points of every migration: "copy" — after the double-write barrier,
// before the bulk copy — and "flip" — after copy and warmup, just before
// the atomic routing flip. Tests use it to run traffic against the router
// or crash a source primary at a deterministic migration point.
func (r *Router) SetMigrationHook(fn func(phase string)) {
	r.mig.Lock()
	r.migHook = fn
	r.mig.Unlock()
}

// Split halves the widest hash range of shard s: a fresh backend is
// appended to the cluster and takes ownership of the upper half, while a
// rebuilt shard s keeps the lower half (and any other ranges s owns).
// Traffic keeps flowing throughout; the routing change is atomic under the
// next range-map generation.
func (r *Router) Split(s int) error {
	r.migMu.Lock()
	defer r.migMu.Unlock()
	if s < 0 || s >= len(r.backends) {
		return fmt.Errorf("shard: split: no shard %d", s)
	}
	newIdx := len(r.backends)
	next, _, err := r.ranges.Load().Split(s, newIdx)
	if err != nil {
		return err
	}
	return r.migrate("split", next, &r.splits, 1, []int{s, newIdx}, []int{s})
}

// Merge folds shard b into shard a: a rebuilt shard a takes ownership of
// every range b owned (plus its own), and slot b is replaced by a fresh
// backend holding only the replicated tables — it stays a full broadcast
// participant but owns no hash range and holds no sharded rows. Traffic
// keeps flowing throughout; the routing change is atomic under the next
// range-map generation.
func (r *Router) Merge(a, b int) error {
	r.migMu.Lock()
	defer r.migMu.Unlock()
	if a < 0 || a >= len(r.backends) || b < 0 || b >= len(r.backends) {
		return fmt.Errorf("shard: merge: no shard pair (%d,%d)", a, b)
	}
	next, moved, err := r.ranges.Load().Merge(a, b)
	if err != nil {
		return err
	}
	return r.migrate("merge", next, &r.merges, moved, []int{a, b}, []int{min(a, b), max(a, b)})
}

// migrate runs the protocol at the top of this file for one Split or Merge:
// slots are the backend slots it rebuilds (len(backends) appends a shard),
// srcs — ascending — the slots whose rows the replacements inherit, next the
// range map the flip installs, and count / moved the operation's counters.
// Every sharded row of a source goes to the slot that owns it under next;
// replicated tables are copied to every replacement from the lowest source
// (shard 0 serves all replicated-table reads, so whenever it is rebuilt its
// replacement keeps its own row order). Callers hold migMu.
func (r *Router) migrate(op string, next *Ranges, count *atomic.Int64, moved int, slots, srcs []int) error {
	if r.mk == nil {
		return fmt.Errorf("shard: %s: no backend factory (router wraps external backends; call SetBackendFactory)", op)
	}
	fresh := make([]Backend, len(slots))
	globs := make([]map[string][]int, len(slots)) // per replacement: table -> global positions in rid order
	dstOf := map[int]int{}                        // slot -> its replacement's index in fresh
	for k, slot := range slots {
		fresh[k], globs[k], dstOf[slot] = r.mk(), map[string][]int{}, k
	}
	dsts := copySets(fresh)
	// place is the ownership rule of both the copy and the flip.
	place := func(ti *tableInfo, v *storage.View, rid int) int {
		if ti.key == "" {
			return wal.All
		}
		if d, ok := dstOf[next.ownerOfRow(v, ti.keyPos, rid)]; ok {
			return d
		}
		return len(fresh) // a slot this migration does not rebuild: the copier refuses it
	}

	// Barrier: arm double-write capture and take the copy cutoffs — each
	// source's own tables as they stand — with no statement in flight, so
	// every row below a cutoff is fully acknowledged and position-mapped, and
	// every insert acknowledged afterward lands in the double-write buffer.
	r.mig.Lock()
	live := make([][]wal.TableSource, len(srcs))
	sources := map[int]bool{}
	for k, s := range srcs {
		live[k], sources[s] = wal.LiveTables(catalog(r.backends[s])), true
	}
	r.migActive, r.migSources, r.pending = true, sources, nil
	hook := r.migHook
	r.mig.Unlock()

	if hook != nil {
		hook("copy")
	}
	// The copy runs with traffic flowing: storage is append-only, so the rows
	// below the barrier's cutoffs are immutable.
	var list []wal.TableSource
	var from []int // list[i]'s source slot
	var tis []*tableInfo
	for t, src := range live[0] {
		ti, n := r.table(src.Name), len(srcs)
		if ti.key == "" {
			n = 1
		}
		for k := 0; k < n; k++ {
			if src = live[k][t]; k > 0 {
				src.Schema, src.Indexes = nil, nil // the table's second source: rows only
			}
			list, from, tis = append(list, src), append(from, srcs[k]), append(tis, ti)
		}
	}
	kept, err := wal.Copy(dsts, list, func(src, rid int, v *storage.View) int { return place(tis[src], v, rid) })
	if err != nil {
		r.abortMigration(fresh)
		return fmt.Errorf("shard: migrate: %w", err)
	}
	var copied int64
	for i, src := range list {
		if tis[i].key == "" {
			copied += int64(src.View.NumRows * len(fresh))
		}
		tis[i].mu.RLock()
		for d, rids := range kept[i] {
			for _, rid := range rids {
				globs[d][src.Name] = append(globs[d][src.Name], tis[i].globalPos(from[i], rid))
			}
			copied += int64(len(rids))
		}
		tis[i].mu.RUnlock()
	}
	for _, b := range fresh {
		b.Warm()
	}
	if hook != nil {
		hook("flip")
	}

	r.mig.Lock()
	if err := r.applyPending(dsts, place, globs); err != nil {
		r.mig.Unlock()
		r.abortMigration(fresh)
		return err
	}
	nb := append([]Backend(nil), r.backends...)
	var retired []Backend
	for k, slot := range slots {
		if slot == len(nb) {
			nb = append(nb, nil)
		} else {
			retired = append(retired, nb[slot])
		}
		nb[slot] = fresh[k]
	}
	r.tmu.RLock()
	for name, ti := range r.tables {
		ti.mu.Lock()
		for len(ti.global) < len(nb) {
			ti.global = append(ti.global, nil)
		}
		if ti.key != "" {
			for k, slot := range slots {
				ti.global[slot] = globs[k][name]
			}
		}
		ti.mu.Unlock()
	}
	r.tmu.RUnlock()
	r.backends = nb
	r.ranges.Store(next)
	r.migActive, r.migSources, r.pending = false, nil, nil
	count.Add(1)
	r.rangesMoved.Add(int64(moved))
	r.rowsCopied.Add(copied)
	r.registerMetricsLocked()
	r.mig.Unlock()

	for _, b := range retired {
		b.Close()
	}
	return nil
}

// applyPending replays the double-write buffer onto the replacements in
// capture order — through the copier, one rows-only source per captured row.
// Called under the mig write lock — the barrier guarantees every captured
// insert's position map entry is complete — and never asks a source backend
// for a row (the views were taken at capture), so it tolerates a source
// primary crash during the copy phase. globs gains the applied rows' global
// positions.
func (r *Router) applyPending(dsts [][]*server.Server, place func(*tableInfo, *storage.View, int) int, globs []map[string][]int) error {
	r.pendingMu.Lock()
	pending := r.pending
	r.pendingMu.Unlock()
	list := make([]wal.TableSource, len(pending))
	for i, p := range pending {
		list[i] = wal.TableSource{Name: p.table, View: p.row}
	}
	kept, err := wal.Copy(dsts, list, func(i, rid int, v *storage.View) int { return place(r.table(pending[i].table), v, rid) })
	if err != nil {
		return fmt.Errorf("shard: migrate: double-write: %w", err)
	}
	for i, p := range pending {
		ti := r.table(p.table)
		ti.mu.RLock()
		for d, ks := range kept[i] {
			if len(ks) > 0 {
				globs[d][p.table] = append(globs[d][p.table], ti.globalPos(p.src, p.srcRid))
			}
		}
		ti.mu.RUnlock()
	}
	return nil
}

// abortMigration disarms double-write capture and discards the replacement
// backends after a failed copy or flip, leaving the cluster exactly as it
// was.
func (r *Router) abortMigration(fresh []Backend) {
	r.mig.Lock()
	r.migActive, r.migSources, r.pending = false, nil, nil
	r.mig.Unlock()
	for _, b := range fresh {
		b.Close()
	}
}
