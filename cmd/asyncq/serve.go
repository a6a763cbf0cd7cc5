package main

import (
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/apps"
	"repro/internal/net"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/wal"
)

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

// serve runs the network front door: a replica group over the simulated
// server (the full submission stack's backend), preloaded with the `load`
// table cmd/loadgen drives, fronted by the wire protocol with a bounded
// admission budget. Blocks until SIGINT/SIGTERM.
func serve(o serveOptions) error {
	mode := wal.Group
	if o.durability != "" {
		var err error
		if mode, err = wal.ParseMode(o.durability); err != nil {
			return err
		}
	}
	if o.replicas < 1 {
		o.replicas = 1
	}
	g := replica.NewGroup(server.SYS1(), o.scale, replica.Options{
		Replicas:   o.replicas,
		Durability: mode,
	})
	defer g.Close()
	if err := apps.LoadPointTable(g.Copies(), "load", o.rows); err != nil {
		return err
	}
	g.Warm()

	reg := obs.NewRegistry()
	g.SetMetrics(reg)
	fd := net.NewServer(g, net.ServerOptions{
		MaxInflight: o.inflight,
		Metrics:     reg,
	})
	if err := fd.Listen(o.addr); err != nil {
		return err
	}
	defer fd.Close()
	fmt.Printf("asyncq: serving %d-row load table on %s (replicas=%d durability=%s inflight=%d)\n",
		o.rows, fd.Addr(), o.replicas, mode, o.inflight)

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
