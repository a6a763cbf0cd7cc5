package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	stdnet "net"
	"slices"
	"sort"
	"sync"
	"time"
)

// Host-speed calibration.
//
// On the shared 2-core box this benchmark runs on, identical code moves by
// 20–40 % in wall AND in CPU time from one ten-second window to the next:
// the host's other tenants slow the cores down (cache, memory bandwidth,
// SMT siblings) in bursts shorter than a second, so neither longer runs nor
// best-of-N segments repeat (NOISE.md has the numbers). What does repeat is
// the RATIO of the workload's time to the time of a fixed reference kernel
// measured within the same few tens of milliseconds. So a run cuts its timed
// phase into ~50 ms segments, runs one burst of the kernel between
// segments, divides each segment's timings by the host's slowdown at that
// moment and reports the median segment: timings "at reference host speed".
// Counts (allocations, bytes, failures) are never touched.
//
// A burst yields two slowdowns. Rates and CPU time are sums, so they are
// corrected by the kernel's mean cost; p50_us is a median, which the stalls
// that inflate a mean leave alone, so it is corrected by the kernel's median
// round trip instead.
//
// The kernel belongs to the benchmark and calls nothing of the program under
// test, so no change to the program can move it. It mixes what the workloads
// spend their time on: loopback TCP round trips between two goroutines
// (syscalls, netpoller, goroutine wake-ups) and user-space work on two cores
// (map lookups, varint coding, hashing, sorting). It allocates nothing, so
// it triggers no collection and does not show in allocs_per_op.
const (
	burstRoundTrips = 250
	burstSpinSteps  = 20_000
	echoWeight      = 0.7 // of the slowdown; the spin half weighs 0.3

	// The kernel's cost on the reference box with a quiet host. Frozen: they
	// only fix the unit in which normalised timings are expressed.
	nominalEchoNS       = 10500.0 // mean round trip
	nominalEchoMedianNS = 10300.0 // median round trip
	nominalSpinNS       = 180.0   // per step

	spinMapSize = 1 << 16
)

type calibrator struct {
	ln   stdnet.Listener
	conn stdnet.Conn
	echo sync.WaitGroup
	buf  [64]byte
	rtt  [burstRoundTrips]int64

	table map[int64]int64
	sink  [2]int64
}

func newCalibrator() (*calibrator, error) {
	c := &calibrator{table: make(map[int64]int64, spinMapSize)}
	for i := int64(0); i < spinMapSize; i++ {
		c.table[i] = int64(mix64(uint64(i)))
	}
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c.ln = ln
	c.echo.Add(1)
	go func() {
		defer c.echo.Done()
		peer, err := ln.Accept()
		if err != nil {
			return
		}
		defer peer.Close()
		var buf [64]byte
		for {
			if _, err := io.ReadFull(peer, buf[:]); err != nil {
				return // the calibrator closed its end
			}
			if _, err := peer.Write(buf[:]); err != nil {
				return
			}
		}
	}()
	if c.conn, err = stdnet.Dial("tcp", ln.Addr().String()); err != nil {
		ln.Close()
		c.echo.Wait()
		return nil, err
	}
	if _, err := c.burst(); err != nil { // first touch is not steady state
		c.close()
		return nil, err
	}
	return c, nil
}

func (c *calibrator) close() {
	c.conn.Close()
	c.ln.Close()
	c.echo.Wait()
}

// slowdown is how slow the host is: 1 at reference speed, 2 when
// everything takes twice as long.
type slowdown struct {
	mean   float64 // corrects sums: rates, CPU time, set-up time
	median float64 // corrects medians: p50_us
}

func (s slowdown) plus(o slowdown) slowdown { return slowdown{s.mean + o.mean, s.median + o.median} }
func (s slowdown) over(n float64) slowdown  { return slowdown{s.mean / n, s.median / n} }

// burst runs the kernel once (≈ 5 ms on a quiet host) and returns the
// host's slowdown.
func (c *calibrator) burst() (slowdown, error) {
	start := time.Now()
	t0 := start
	for i := range c.rtt {
		if _, err := c.conn.Write(c.buf[:]); err != nil {
			return slowdown{}, fmt.Errorf("calibration echo: %w", err)
		}
		if _, err := io.ReadFull(c.conn, c.buf[:]); err != nil {
			return slowdown{}, fmt.Errorf("calibration echo: %w", err)
		}
		t1 := time.Now()
		c.rtt[i] = int64(t1.Sub(t0))
		t0 = t1
	}
	echoNS := float64(t0.Sub(start)) / burstRoundTrips
	slices.Sort(c.rtt[:])
	echoMedianNS := float64(c.rtt[burstRoundTrips/2])

	var wg sync.WaitGroup
	t0 = time.Now()
	for g := range c.sink {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c.sink[g] += c.spin(int64(g))
		}(g)
	}
	wg.Wait()
	spin := (1 - echoWeight) * float64(time.Since(t0)) / burstSpinSteps / nominalSpinNS
	return slowdown{
		mean:   echoWeight*echoNS/nominalEchoNS + spin,
		median: echoWeight*echoMedianNS/nominalEchoMedianNS + spin,
	}, nil
}

// spin is the user-space half: the kind of instructions the stack executes
// (hash-map probes, varint coding, hashing, short sorts) over a working set
// that fits the outer cache levels.
func (c *calibrator) spin(acc int64) int64 {
	var buf [2 * binary.MaxVarintLen64]byte
	var arr [32]int
	h := fnv.New64a()
	for i := 0; i < burstSpinSteps; i++ {
		k := int64(mix64(uint64(i)+uint64(acc)) & (spinMapSize - 1))
		acc += c.table[k]
		n := binary.PutVarint(buf[:], acc)
		n += binary.PutUvarint(buf[n:], uint64(k))
		h.Reset()
		h.Write(buf[:n])
		acc ^= int64(h.Sum64())
		if i%16 == 0 {
			for j := range arr {
				arr[j] = int(mix64(uint64(acc)+uint64(j)) & 1023)
			}
			sort.Ints(arr[:])
			acc += int64(arr[7])
		}
	}
	return acc
}

// slowdownOver averages n bursts (around the ~0.5 s set-ups, where one
// burst is too short a sample).
func (c *calibrator) slowdownOver(n int) (slowdown, error) {
	var sum slowdown
	for i := 0; i < n; i++ {
		b, err := c.burst()
		if err != nil {
			return sum, err
		}
		sum = sum.plus(b)
	}
	return sum.over(float64(n)), nil
}
