package shard

import (
	"fmt"
	"slices"

	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/wal"
)

// This file implements online re-sharding: Router.Split moves the upper
// half of one backend's hash range onto a new backend while traffic keeps
// flowing.
//
// Storage is append-only (no row deletion), so a migration never carves
// rows out of a live backend; it builds two backends — the source's
// replacement and the new one — and retires the source whole. The protocol:
//
//  1. Barrier (mig write lock, no statement in flight): take per-table
//     views, cut off at their row counts, of the source shard and arm
//     double-write capture. Every row below a cutoff is a fully
//     acknowledged, position-mapped row; every insert acknowledged after the
//     barrier is captured, as a one-row view, in the pending buffer.
//  2. Copy (no router locks, traffic flowing): build both backends from the
//     cutoff prefixes in one wal.Copy — the source's DDL order, every row to
//     its owner under the next-generation range map, indexes — then warm
//     them. New backends are invisible to routing.
//  3. Flip (mig write lock again): apply the pending double-writes to the
//     new backends in capture order, put the replacement in the source's
//     slot and append the other, install the next-generation range map,
//     disarm capture. Readers drain before the lock and re-route after it,
//     so no statement ever observes a partial move.
//  4. Retire: close the source backend. (A new replica group needs no
//     checkpoint: like any bulk-loaded group it snapshots its base state
//     before its first logged write and inside CrashPrimary.)
//
// The flip never asks the source backend for a row — pending rows are views,
// taken at capture, of append-only vectors — so a source primary crash
// between copy and flip cannot lose or duplicate an acknowledged write:
// everything acknowledged before the barrier is below a cutoff, everything
// after is in the pending buffer, and unacknowledged inserts are in neither.

// MigrationStats counts the re-sharding machinery's work to date.
type MigrationStats struct {
	Generation   int64 // range-map generation (Split steps applied)
	Splits       int64
	RowsCopied   int64 // rows bulk-copied onto new backends
	DoubleWrites int64 // inserts captured and replayed by migrations
}

// MigrationStats returns the router's migration counters.
func (r *Router) MigrationStats() MigrationStats {
	return MigrationStats{
		Generation:   r.ranges.Load().Generation(),
		Splits:       r.splits.Load(),
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

// Split halves shard s's hash range: a fresh backend is appended to the
// cluster and takes ownership of the upper half, while a rebuilt shard s
// keeps the lower half. Traffic keeps flowing throughout; the routing change
// is atomic under the next range-map generation.
func (r *Router) Split(s int) error {
	r.migMu.Lock()
	defer r.migMu.Unlock()
	if s < 0 || s >= len(r.backends) {
		return fmt.Errorf("shard: split: no shard %d", s)
	}
	next, _, err := r.ranges.Load().Split(s)
	if err != nil {
		return err
	}
	return r.migrate(s, next)
}

// migrate runs the protocol at the top of this file for one Split of slot
// src: fresh[0] replaces src, fresh[1] is appended at slot len(backends),
// and next is the range map the flip installs. Every sharded row of src goes
// to the slot that owns it under next; replicated tables are copied to both.
// Callers hold migMu.
func (r *Router) migrate(src int, next *Ranges) error {
	if r.mk == nil {
		return fmt.Errorf("shard: split: no backend factory (router wraps external backends; call SetBackendFactory)")
	}
	added := len(r.backends)
	fresh := []Backend{r.mk(), r.mk()}
	globs := []map[string][]int32{{}, {}} // per new backend: table -> global positions in rid order
	dsts := copySets(fresh)
	// place is the ownership rule of both the copy and the flip.
	place := func(ti *tableInfo, v *storage.View, rid int) int {
		if ti.key == "" {
			return wal.All
		}
		switch next.ownerOfRow(v, ti.keyPos, rid) {
		case src:
			return 0
		case added:
			return 1
		}
		return len(fresh) // not this split's row: the copier refuses it
	}

	// Barrier: arm double-write capture and take the copy cutoffs — the
	// source's own tables as they stand — with no statement in flight, so
	// every row below a cutoff is fully acknowledged and position-mapped, and
	// every insert acknowledged afterward lands in the double-write buffer.
	r.mig.Lock()
	live := wal.LiveTables(catalog(r.backends[src]))
	r.migActive, r.migSource, r.pending = true, src, nil
	hook := r.migHook
	r.mig.Unlock()

	if hook != nil {
		hook("copy")
	}
	// The copy runs with traffic flowing: storage is append-only, so the rows
	// below the barrier's cutoffs are immutable.
	tis := make([]*tableInfo, len(live))
	for i, t := range live {
		tis[i] = r.table(t.Name)
	}
	kept, err := wal.Copy(dsts, live, func(i, rid int, v *storage.View) int { return place(tis[i], v, rid) })
	if err != nil {
		r.abortMigration(fresh)
		return fmt.Errorf("shard: migrate: %w", err)
	}
	var copied int64
	for i, t := range live {
		if tis[i].key == "" {
			copied += int64(t.View.NumRows * len(fresh))
		}
		tis[i].mu.RLock()
		for d, rids := range kept[i] {
			for _, rid := range rids {
				globs[d][t.Name] = append(globs[d][t.Name], int32(tis[i].globalPos(src, rid)))
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
	retired := r.backends[src]
	nb := append(slices.Clone(r.backends), fresh[1])
	nb[src] = fresh[0]
	r.tmu.RLock()
	for name, ti := range r.tables {
		ti.mu.Lock()
		for len(ti.global) < len(nb) {
			ti.global = append(ti.global, nil)
		}
		if ti.key != "" {
			ti.global[src], ti.global[added] = globs[0][name], globs[1][name]
		}
		ti.mu.Unlock()
	}
	r.tmu.RUnlock()
	r.backends = nb
	r.ranges.Store(next)
	r.migActive, r.pending = false, nil
	r.splits.Add(1)
	r.rowsCopied.Add(copied)
	r.registerMetricsLocked()
	r.mig.Unlock()

	retired.Close()
	return nil
}

// applyPending replays the double-write buffer onto the new backends in
// capture order — through the copier, one rows-only source per captured row.
// Called under the mig write lock — the barrier guarantees every captured
// insert's position map entry is complete — and never asks a source backend
// for a row (the views were taken at capture), so it tolerates a source
// primary crash during the copy phase. globs gains the applied rows' global
// positions.
func (r *Router) applyPending(dsts [][]*server.Server, place func(*tableInfo, *storage.View, int) int, globs []map[string][]int32) error {
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
				globs[d][p.table] = append(globs[d][p.table], int32(ti.globalPos(p.src, p.srcRid)))
			}
		}
		ti.mu.RUnlock()
	}
	return nil
}

// abortMigration disarms double-write capture and discards the new backends
// after a failed copy or flip, leaving the cluster exactly as it was.
func (r *Router) abortMigration(fresh []Backend) {
	r.mig.Lock()
	r.migActive, r.pending = false, nil
	r.mig.Unlock()
	for _, b := range fresh {
		b.Close()
	}
}
