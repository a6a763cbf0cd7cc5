package shard

import (
	"fmt"
	"sync/atomic"

	"repro/internal/replica"
)

// This file implements online re-sharding: Router.Split and Router.Merge
// move hash-range ownership between backends while traffic keeps flowing.
//
// Storage is append-only (no row deletion), so a migration never carves
// rows out of a live backend; it builds replacement backends and retires
// the old ones whole. The protocol, for either operation:
//
//  1. Barrier (mig write lock, no statement in flight): snapshot per-table
//     row-count cutoffs on the source shards and arm double-write capture.
//     Every row below a cutoff is a fully acknowledged, position-mapped
//     row; every insert acknowledged after the barrier is captured, with
//     its row materialized, in the pending buffer.
//  2. Copy (no router locks, traffic flowing): build the replacement
//     backends from the cutoff prefixes — tables in original DDL order,
//     rows filtered by the next-generation range map, indexes, warm
//     buffer pools. New backends are invisible to routing.
//  3. Flip (mig write lock again): apply the pending double-writes to the
//     replacements in capture order, splice the replacements into the
//     backend set, install the next-generation range map, disarm capture.
//     Readers drain before the lock and re-route after it, so no statement
//     ever observes a partial move.
//  4. Retire: close the old backends; checkpoint replacement replica
//     groups so their bulk-loaded state is crash-recoverable.
//
// The flip never reads the source backends — pending rows were
// materialized at capture — so a source primary crash between copy and
// flip cannot lose or duplicate an acknowledged write: everything
// acknowledged before the barrier is below a cutoff, everything after is
// in the pending buffer, and unacknowledged inserts are in neither.

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
	return r.migrate("split", next, &r.splits, 1, []rebuild{
		{slot: s, srcs: []int{s}, replSrc: s},
		{slot: newIdx, srcs: []int{s}, replSrc: s},
	})
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
	return r.migrate("merge", next, &r.merges, moved, []rebuild{
		{slot: a, srcs: []int{a, b}, replSrc: a},
		{slot: b, replSrc: b},
	})
}

// rebuild describes one replacement backend of a migration.
type rebuild struct {
	slot    int   // backend slot it takes; len(backends) appends a shard
	srcs    []int // slots whose sharded rows it inherits: those it owns under the next map
	replSrc int   // slot its replicated tables are copied from
}

// migrate runs the protocol at the top of this file for one Split or Merge:
// plan lists the replacement backends, next is the range map the flip
// installs, and count / moved are the operation's counters. Callers hold
// migMu.
func (r *Router) migrate(op string, next *Ranges, count *atomic.Int64, moved int, plan []rebuild) error {
	if r.mk == nil {
		return fmt.Errorf("shard: %s: no backend factory (router wraps external backends; call SetBackendFactory)", op)
	}
	order := r.ddlOrder()
	fresh := make([]Backend, len(plan))
	dsts := map[int]Backend{}
	sources := map[int]bool{}
	for k, p := range plan {
		fresh[k] = r.mk()
		dsts[p.slot] = fresh[k]
		for _, s := range p.srcs {
			sources[s] = true
		}
	}

	// Barrier: arm double-write capture and take the copy cutoffs with no
	// statement in flight.
	r.mig.Lock()
	cut := r.cutoffs(order)
	r.migActive, r.migSources, r.pending = true, sources, nil
	hook := r.migHook
	r.mig.Unlock()

	if hook != nil {
		hook("copy")
	}
	globs := map[int]map[string][]int{}
	var copied int64
	var err error
	for k, p := range plan {
		var n int64
		if globs[p.slot], n, err = r.buildBackend(fresh[k], order, p, next, cut); err != nil {
			r.abortMigration(fresh)
			return err
		}
		copied += n
	}
	if hook != nil {
		hook("flip")
	}

	r.mig.Lock()
	if err := r.applyPending(next, dsts, globs); err != nil {
		r.mig.Unlock()
		r.abortMigration(fresh)
		return err
	}
	nb := append([]Backend(nil), r.backends...)
	var retired []Backend
	for k, p := range plan {
		if p.slot == len(nb) {
			nb = append(nb, nil)
		} else {
			retired = append(retired, nb[p.slot])
		}
		nb[p.slot] = fresh[k]
	}
	for _, name := range order {
		ti := r.table(name)
		ti.mu.Lock()
		for len(ti.global) < len(nb) {
			ti.global = append(ti.global, nil)
		}
		if ti.key != "" {
			for _, p := range plan {
				ti.global[p.slot] = globs[p.slot][name]
			}
		}
		ti.mu.Unlock()
	}
	r.backends = nb
	r.ranges.Store(next)
	r.migActive, r.migSources, r.pending = false, nil, nil
	count.Add(1)
	r.rangesMoved.Add(int64(moved))
	r.rowsCopied.Add(copied)
	r.registerMetricsLocked()
	r.mig.Unlock()

	// Retire the old backends; checkpoint replacement replica groups so their
	// bulk-loaded base state (copy plus applied double-writes) is recoverable:
	// a later primary crash restores from this snapshot plus the WAL tail
	// written since. Bare server backends have no log and need nothing.
	for _, b := range retired {
		b.Close()
	}
	for _, b := range fresh {
		if g, ok := b.(*replica.Group); ok {
			if err := g.Checkpoint(); err != nil {
				return fmt.Errorf("shard: migrate: checkpoint: %w", err)
			}
		}
	}
	return nil
}

// ddlOrder snapshots the tables in original DDL (reference extent) order so
// replacement backends reproduce identical extent numbering.
func (r *Router) ddlOrder() []string {
	r.tmu.RLock()
	defer r.tmu.RUnlock()
	return append([]string(nil), r.tableOrder...)
}

// cutoffs snapshots every slot's per-table row counts. Called under the mig
// write lock with no statement in flight, so every row below a cutoff is
// fully acknowledged and position-mapped, and every insert acknowledged
// afterward lands in the double-write buffer instead.
func (r *Router) cutoffs(order []string) []map[string]int {
	out := make([]map[string]int, len(r.backends))
	for s, b := range r.backends {
		out[s] = map[string]int{}
		for _, name := range order {
			out[s][name] = b.NumTableRows(name)
		}
	}
	return out
}

// buildBackend constructs one replacement backend from cutoff prefixes:
// every table in DDL order, replicated tables copied whole from p.replSrc,
// sharded tables copied from each of p.srcs keeping the rows p.slot owns
// under the next map, then FinishLoad, the original indexes, and a warm
// buffer pool. It runs with traffic flowing — storage is append-only, so the
// rows below the barrier's cutoffs are immutable. Returns the global row
// positions of the copied sharded rows (per table, in destination rid order)
// and the total rows copied.
func (r *Router) buildBackend(dst Backend, order []string, p rebuild, next *Ranges, cut []map[string]int) (map[string][]int, int64, error) {
	glob := map[string][]int{}
	var copied int64
	for _, name := range order {
		ti := r.table(name)
		if err := dst.CreateTable(name, ti.schema, ti.rowsPerPage); err != nil {
			return nil, 0, fmt.Errorf("shard: migrate: create %s: %w", name, err)
		}
		srcs := p.srcs
		if ti.key == "" {
			srcs = []int{p.replSrc}
		}
		for _, s := range srcs {
			src := r.backends[s]
			for rid, n := 0, cut[s][name]; rid < n; rid++ {
				row := src.TableRow(name, rid)
				if ti.key != "" {
					if next.OwnerOf(row[ti.keyPos]) != p.slot {
						continue
					}
					glob[name] = append(glob[name], ti.globalPos(s, rid))
				}
				if err := dst.InsertRow(name, row); err != nil {
					return nil, 0, fmt.Errorf("shard: migrate: copy %s: %w", name, err)
				}
				copied++
			}
		}
	}
	dst.FinishLoad()
	for _, name := range order {
		ti := r.table(name)
		for _, ix := range ti.indexes {
			if err := dst.AddIndex(name, ix.Column, ix.Unique); err != nil {
				return nil, 0, fmt.Errorf("shard: migrate: index %s(%s): %w", name, ix.Column, err)
			}
		}
	}
	dst.Warm()
	return glob, copied, nil
}

// applyPending replays the double-write buffer onto the replacement
// backends in capture order: replicated-table rows to every replacement,
// sharded rows to the next-generation owner. Called under the mig write
// lock — the barrier guarantees every captured insert's position map entry
// is complete — and never reads a source backend (rows were materialized at
// capture), so it tolerates a source primary crash during the copy phase.
// glob accumulates the applied rows' global positions per destination.
func (r *Router) applyPending(next *Ranges, dsts map[int]Backend, glob map[int]map[string][]int) error {
	r.pendingMu.Lock()
	pending := r.pending
	r.pendingMu.Unlock()
	for _, p := range pending {
		if p.repl {
			for _, dst := range dsts {
				if err := dst.InsertRow(p.table, p.row); err != nil {
					return fmt.Errorf("shard: migrate: double-write %s: %w", p.table, err)
				}
			}
			continue
		}
		ti := r.table(p.table)
		owner := next.OwnerOf(p.row[ti.keyPos])
		dst, ok := dsts[owner]
		if !ok {
			return fmt.Errorf("shard: migrate: double-write %s routed to unmigrated shard %d", p.table, owner)
		}
		if err := dst.InsertRow(p.table, p.row); err != nil {
			return fmt.Errorf("shard: migrate: double-write %s: %w", p.table, err)
		}
		g := glob[owner]
		g[p.table] = append(g[p.table], ti.globalPos(p.src, p.srcRid))
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
