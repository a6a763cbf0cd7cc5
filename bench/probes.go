package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/net"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/wal"
)

// Probes are the per-layer numbers below the seams a shim can reach:
// single-goroutine timings of each layer's public functions on the
// workloads' own statements, with nothing else running. A probe's ns is the
// median of probeReps repetitions of iters calls each.
const probeReps = 3

func probe(iters int, f func(i int)) (ns, allocs float64) {
	f(0) // first-call costs (plan caches, lazily built state) are not the layer's steady state
	times := make([]float64, probeReps)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for r := range times {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			f(r*iters + i + 1)
		}
		times[r] = float64(time.Since(t0)) / float64(iters)
	}
	runtime.ReadMemStats(&ms1)
	sort.Float64s(times)
	return times[probeReps/2], float64(ms1.Mallocs-ms0.Mallocs) / float64(probeReps*iters)
}

// okExec is a backend that answers at once: what is left of a round trip
// over it is the wire, the front door and the client.
type okExec struct{ row interp.Rows }

func (o okExec) Exec(query.Request) query.Result { return query.Ok(o.row) }
func (o okExec) ExecBatch(req query.BatchRequest) query.BatchResult {
	res := query.BatchResult{Values: make([]any, len(req.ArgSets)), Errs: make([]error, len(req.ArgSets))}
	for i := range res.Values {
		res.Values[i] = o.row
	}
	return res
}

// stubService answers the interpreter in place, so probe.interp.iter_ns is
// the interpreter's own cost per loop iteration.
type stubService struct{ row interp.Rows }

func (s stubService) Exec(string, string, []interp.Value) (interp.Value, error) { return s.row, nil }
func (s stubService) Submit(string, string, []interp.Value) (interp.Handle, error) {
	return nil, fmt.Errorf("stub service: blocking calls only")
}

// runProbes fills every probe.* value. It uses the reference pass's
// unshimmed stack for the shard and replica layers and builds the bare
// pieces (a full-copy server, a fresh log, a no-op front door) itself.
func runProbes(s *stack, values map[string]float64) error {
	d := s.data
	uid := func(i int) int { return i * 7919 % numUsers }
	pointReq := func(i int) query.Request {
		return query.Req("point", sqlPoint, []any{int64(uid(i))})
	}
	scatterReq := func(i int) query.Request {
		return query.Req("scatter", sqlScatter, []any{int64(i * 7919 % numRatings)})
	}
	batchReq := func(i int) query.BatchRequest {
		sets := make([][]any, batchSize)
		for k := range sets {
			sets[k] = []any{int64(uid(i*batchSize + k))}
		}
		return query.BatchReq("point", sqlPoint, sets)
	}
	var failed error
	check := func(what string, err error) {
		if err != nil && failed == nil {
			failed = fmt.Errorf("%s: %w", what, err)
		}
	}

	// ---- wire codec, on the point statement and its real result ----
	pointRes := s.router.Exec(pointReq(1))
	batchRes := s.router.ExecBatch(batchReq(1))
	check("point", pointRes.Err)
	encExec, _ := net.EncodeExec(1, pointReq(1))
	encRes, _ := net.EncodeResult(1, pointRes)
	encBatch, err := net.EncodeBatchResult(1, batchRes)
	check("encode batch result", err)
	values["probe.net.encode_exec_ns"], _ = probe(20000, func(i int) { net.EncodeExec(uint64(i), pointReq(1)) })
	values["probe.net.decode_exec_ns"], _ = probe(20000, func(int) { net.DecodeExec(encExec) })
	values["probe.net.encode_result_ns"], _ = probe(20000, func(i int) { net.EncodeResult(uint64(i), pointRes) })
	values["probe.net.decode_result_ns"], _ = probe(20000, func(int) { net.DecodeResult(encRes) })
	values["probe.net.encode_batch_result_ns"], _ = probe(1000, func(i int) { net.EncodeBatchResult(uint64(i), batchRes) })
	values["probe.net.decode_batch_result_ns"], _ = probe(1000, func(int) { net.DecodeBatchResult(encBatch) })

	// ---- a round trip with nothing behind the door ----
	row, _ := pointRes.Value.(interp.Rows)
	door := net.NewServer(okExec{row: row}, net.ServerOptions{})
	if err := door.Listen("127.0.0.1:0"); err != nil {
		return err
	}
	conn, err := net.Dial(door.Addr())
	if err != nil {
		door.Close()
		return err
	}
	ns, _ := probe(5000, func(i int) { check("noop round trip", conn.Exec(pointReq(i)).Err) })
	values["probe.net.roundtrip_noop_us"] = ns / 1e3
	conn.Close()
	door.Close()

	// ---- shard router, called in process ----
	values["probe.shard.point_ns"], _ = probe(20000, func(i int) { check("shard point", s.router.Exec(pointReq(i)).Err) })
	values["probe.shard.scatter_ns"], _ = probe(5000, func(i int) { check("shard scatter", s.router.Exec(scatterReq(i)).Err) })
	ns, _ = probe(500, func(i int) { s.router.ExecBatch(batchReq(i)) })
	values["probe.shard.batch64_ns_per_row"] = ns / batchSize
	ranges := s.router.Ranges()
	owned := make([]int64, 0, 1024) // keys shard 0 owns, for the replica read probe
	for u := 0; len(owned) < cap(owned); u++ {
		if ranges.OwnerOf(int64(u)) == 0 {
			owned = append(owned, int64(u))
		}
	}
	sink := 0
	values["probe.shard.owner_ns"], _ = probe(200000, func(i int) { sink += ranges.OwnerOf(int64(i)) })
	args := []any{int64(42)}
	values["probe.shard.batch_group_ns"], _ = probe(200000, func(int) { sink += s.router.BatchGroup("point", sqlPoint, args) })
	_ = sink

	// ---- one replica group, called in process ----
	g := s.groups[0]
	values["probe.replica.read_ns"], _ = probe(20000, func(i int) {
		check("replica read", g.Exec(query.Req("point", sqlPoint, []any{owned[i%len(owned)]})).Err)
	})
	const probeEIDs = 9_000_000_000 // beyond every client's key range
	values["probe.replica.insert_ns"], _ = probe(2000, func(i int) {
		eid := int64(probeEIDs + i)
		check("replica insert", g.Exec(query.Req("event", sqlInsert, []any{eid, d.eventUID(eid), eventNote(eid)})).Err)
	})

	// ---- write-ahead log alone: append + group commit, short and long tail ----
	appendCommit := func(l *wal.Log) func(int) {
		return func(i int) { l.Commit(l.Append("event", sqlInsert, [][]any{{int64(i), int64(i), "note"}})) }
	}
	l := wal.New(wal.Options{Mode: wal.Group})
	values["probe.wal.append_commit_ns"], _ = probe(1000, appendCommit(l))
	l.Close()
	l = wal.New(wal.Options{Mode: wal.Group})
	for i := 0; i < 1<<16; i++ { // 65 536 retained records, committed once
		l.Append("event", sqlInsert, [][]any{{int64(i), int64(i), "note"}})
	}
	l.SyncTo(l.LastLSN())
	values["probe.wal.append_commit_tail64k_ns"], _ = probe(100, appendCommit(l))
	l.Close()

	// ---- one bare server holding the whole dataset ----
	srv := server.New(server.SYS1(), 0)
	defer srv.Close()
	if err := d.load(srv); err != nil {
		return err
	}
	srv.Warm()
	sp := func(name string, iters, per int, f func(i int)) {
		ns, allocs := probe(iters, f)
		suffix := ""
		if per > 1 {
			suffix = "_per_row"
		}
		values["probe.server."+name+"_ns"+suffix] = ns / float64(per)
		values["probe.server."+name+"_allocs"+suffix] = allocs / float64(per)
	}
	sp("point", 20000, 1, func(i int) { check("server point", srv.Exec(pointReq(i)).Err) })
	sp("scatter", 5000, 1, func(i int) { check("server scatter", srv.Exec(scatterReq(i)).Err) })
	sp("insert", 5000, 1, func(i int) {
		eid := int64(probeEIDs + i)
		check("server insert", srv.Exec(query.Req("event", sqlInsert, []any{eid, d.eventUID(eid), eventNote(eid)})).Err)
	})
	sp("batch64", 500, batchSize, func(i int) { srv.ExecBatch(batchReq(i)) })

	// ---- client runtime ----
	ids := make([]interp.Value, programIters)
	for i := range ids {
		ids[i] = int64(uid(i))
	}
	list := interp.NewList(ids...)
	in := interp.New(s.rubisReg, stubService{row: row})
	ns, _ = probe(20, func(int) {
		_, err := in.Run(s.rubisOrig, []interp.Value{list})
		check("interp", err)
	})
	values["probe.interp.iter_ns"] = ns / programIters

	ok := okExec{row: row}
	submitFetch := func(svc *exec.Service) func(int) {
		hs := make([]interp.Handle, programIters)
		return func(int) {
			for k := range hs {
				h, err := svc.Submit("point", sqlPoint, args)
				check("submit", err)
				hs[k] = h
			}
			for _, h := range hs {
				if h != nil {
					_, err := h.Fetch()
					check("fetch", err)
				}
			}
		}
	}
	plain := exec.NewService(programWorkers, ok.Exec)
	ns, _ = probe(20, submitFetch(plain))
	values["probe.exec.submit_fetch_ns"] = ns / programIters
	plain.Close()
	coalescing := batch.NewService(programWorkers, ok.Exec, ok.ExecBatch, batch.Options{MaxBatch: programMaxBatch})
	ns, _ = probe(20, submitFetch(coalescing))
	values["probe.batch.submit_fetch_ns"] = ns / programIters
	coalescing.Close()

	opts := core.DefaultOptions()
	opts.Registry = s.rubisReg
	ns, _ = probe(200, func(int) {
		_, _, err := core.Transform(s.rubisOrig, opts)
		check("transform", err)
	})
	values["probe.core.transform_us"] = ns / 1e3
	return failed
}
