package main

import (
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/experiments"
	"repro/internal/net"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/wal"
)

// serveShards is the served cluster's shard count: the posture the
// repository benchmark measures (two shards keyed on the load table's id).
const serveShards = 2

// serveOptions are the -serve flags (see main).
type serveOptions struct {
	addr       string
	rows       int
	inflight   int
	replicas   int
	durability string
	scale      float64
	stats      bool
}

// serve runs the network front door over the served stack
// (experiments.Serve): serveShards shards keyed on load.id, each a replica
// group (a primary and o.replicas synchronous replicas over a WAL) on the
// simulated server, preloaded with the `load` table cmd/loadgen drives,
// behind the wire protocol with a bounded admission budget. Blocks until
// SIGINT/SIGTERM.
func serve(o serveOptions) error {
	mode, err := wal.ParseMode(o.durability)
	if err != nil {
		return err
	}
	if o.replicas < 1 {
		o.replicas = 1
	}
	reg := obs.NewRegistry()
	st, err := experiments.Serve(o.addr, o.scale, serveShards,
		replica.Options{Replicas: o.replicas, Durability: mode}, o.rows,
		net.ServerOptions{MaxInflight: o.inflight, Metrics: reg})
	if err != nil {
		return err
	}
	defer st.Close()
	fmt.Printf("asyncq: serving %d-row load table on %s (shards=%d replicas=%d durability=%s inflight=%d)\n",
		o.rows, st.Door.Addr(), serveShards, o.replicas, mode, o.inflight)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "asyncq: shutting down")
	if o.stats {
		fmt.Fprintln(os.Stderr, "-- stats:")
		if err := reg.Dump(os.Stderr); err != nil {
			return err
		}
	}
	return nil
}
