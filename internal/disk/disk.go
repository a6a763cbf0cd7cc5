// Package disk simulates a single rotating disk with positional seek costs
// and elevator (SCAN) scheduling of queued requests. This is the mechanism
// behind the paper's observation that concurrently submitted queries let the
// database "reorder disk IO requests to minimize seeks" (§I): when many
// requests are queued, the disk services them in head-position order, so the
// average seek distance — and therefore the per-request latency — drops as
// concurrency rises. A cold buffer pool funnels page misses here, making the
// disk the bottleneck the paper's cold-cache experiments exercise.
package disk

import (
	"sync"
	"time"

	"repro/internal/simclock"
)

// Params model the device. All durations are unscaled base units
// (microsecond scale at Scale=1).
type Params struct {
	// Tracks is the number of logical head positions.
	Tracks int
	// SeekPerTrack is the head movement cost per track of distance.
	SeekPerTrack time.Duration
	// SeekMin is the minimum positioning cost of any access.
	SeekMin time.Duration
	// TransferPerPage is the cost of transferring one page once positioned.
	TransferPerPage time.Duration
	// Spindles is the number of independent drives the extent space is
	// striped over — the paper's servers have "multiple disks" (§I), which
	// is one of the reasons concurrent submission helps cold-cache loads.
	// Requests are served by per-spindle elevators.
	Spindles int
	// WriteSettle is an extra positional delay charged once per write
	// request: the rotational wait for the target sector to come under the
	// head, which a durable write must pay but a (track-buffered) read
	// avoids. Zero by default so the seek-only model is unchanged; the
	// durability experiment sets it so a WAL fsync carries its real-world
	// cost — the cost group commit amortizes.
	WriteSettle time.Duration
}

// DefaultParams give a disk whose full-stroke seek is ~2ms and per-page
// transfer 70µs, so a random single-page read costs ~750µs on average
// (sequential scans stay transfer-dominated) and deep request queues cut
// the seek component sharply.
func DefaultParams() Params {
	return Params{
		Tracks:          4096,
		SeekPerTrack:    500 * time.Nanosecond,
		SeekMin:         50 * time.Microsecond,
		TransferPerPage: 70 * time.Microsecond,
		Spindles:        8,
	}
}

// Request is one batched IO: transfer `Pages` pages starting at track
// `Track`. Reads and writes ride the same elevator; `write` only switches
// which activity counter the transfer lands in.
type request struct {
	track int
	pages int
	write bool
	done  chan struct{}
}

// Disk services requests in elevator order, one in flight per spindle.
type Disk struct {
	params Params
	clock  *simclock.Clock

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*request
	heads  []int // per-spindle head position
	closed bool
	wg     sync.WaitGroup

	statMu       sync.Mutex
	requests     int64
	pagesRead    int64
	writes       int64
	pagesWritten int64
	seekTime     time.Duration
	busyTime     time.Duration
	maxQueue     int
	totalQueue   int64
}

// New starts the disk's service goroutines (one per spindle).
func New(params Params, clock *simclock.Clock) *Disk {
	if params.Spindles < 1 {
		params.Spindles = 1
	}
	d := &Disk{params: params, clock: clock, heads: make([]int, params.Spindles)}
	d.cond = sync.NewCond(&d.mu)
	d.wg.Add(params.Spindles)
	for i := 0; i < params.Spindles; i++ {
		go d.serve(i)
	}
	return d
}

// Read blocks until the disk has serviced a batched read of pages pages
// located at track (modulo the disk size).
func (d *Disk) Read(track, pages int) { d.submit(track, pages, false) }

// Write blocks until the disk has serviced a batched write of pages pages at
// track (modulo the disk size) — the durability path: a write-ahead log's
// group-committed fsync is one Write call covering the whole commit batch,
// so the fsync cost amortizes across the batch exactly like seeks amortize
// across queued reads.
func (d *Disk) Write(track, pages int) { d.submit(track, pages, true) }

func (d *Disk) submit(track, pages int, write bool) {
	if pages <= 0 {
		return
	}
	if d.params.Tracks > 0 {
		track = ((track % d.params.Tracks) + d.params.Tracks) % d.params.Tracks
	}
	r := &request{track: track, pages: pages, write: write, done: make(chan struct{})}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.queue = append(d.queue, r)
	if len(d.queue) > d.maxQueue {
		d.maxQueue = len(d.queue)
	}
	// Broadcast, not Signal: requests are striped across spindles and a
	// single Signal could wake a spindle that has no work for this track.
	d.cond.Broadcast()
	d.mu.Unlock()
	<-r.done
}

// Close stops the service goroutine after draining the queue.
func (d *Disk) Close() {
	d.mu.Lock()
	if !d.closed {
		d.closed = true
		d.cond.Broadcast()
	}
	d.mu.Unlock()
	d.wg.Wait()
}

// Stats summarizes device activity.
type Stats struct {
	Requests     int64
	PagesRead    int64
	Writes       int64
	PagesWritten int64
	SeekTime     time.Duration // unscaled virtual time spent seeking
	BusyTime     time.Duration // unscaled virtual total service time
	MaxQueue     int
	AvgQueue     float64
}

// Stats returns a snapshot.
func (d *Disk) Stats() Stats {
	d.statMu.Lock()
	defer d.statMu.Unlock()
	s := Stats{
		Requests:     d.requests,
		PagesRead:    d.pagesRead,
		Writes:       d.writes,
		PagesWritten: d.pagesWritten,
		SeekTime:     d.seekTime,
		BusyTime:     d.busyTime,
		MaxQueue:     d.maxQueue,
	}
	if d.requests > 0 {
		s.AvgQueue = float64(d.totalQueue) / float64(d.requests)
	}
	return s
}

// serve is one spindle's elevator loop: among queued requests for this
// spindle, pick the one nearest to the spindle's head position (a common
// SSTF/SCAN hybrid simplification), sleep its service time, complete it.
// A request on track t belongs to spindle t mod Spindles (striping).
func (d *Disk) serve(spindle int) {
	defer d.wg.Done()
	for {
		d.mu.Lock()
		idx := -1
		for {
			idx = d.nearestLocked(spindle)
			if idx >= 0 || d.closed {
				break
			}
			d.cond.Wait()
		}
		if idx < 0 && d.closed {
			d.mu.Unlock()
			return
		}
		r := d.queue[idx]
		d.queue = append(d.queue[:idx], d.queue[idx+1:]...)
		depth := len(d.queue) + 1
		dist := r.track/d.params.Spindles - d.heads[spindle]
		if dist < 0 {
			dist = -dist
		}
		d.heads[spindle] = r.track / d.params.Spindles
		d.mu.Unlock()

		seek := time.Duration(dist)*d.params.SeekPerTrack + d.params.SeekMin
		service := seek + time.Duration(r.pages)*d.params.TransferPerPage
		if r.write {
			service += d.params.WriteSettle
		}
		d.clock.Sleep(service)

		d.statMu.Lock()
		d.requests++
		if r.write {
			d.writes++
			d.pagesWritten += int64(r.pages)
		} else {
			d.pagesRead += int64(r.pages)
		}
		d.seekTime += seek
		d.busyTime += service
		d.totalQueue += int64(depth)
		d.statMu.Unlock()

		close(r.done)
	}
}

// nearestLocked returns the index of the queued request for this spindle
// with the shortest seek from the spindle's head, or -1 when none is
// queued. Ties resolve to the lowest track so order is deterministic.
func (d *Disk) nearestLocked(spindle int) int {
	best := -1
	bestDist := 1 << 60
	for i, r := range d.queue {
		if r.track%d.params.Spindles != spindle {
			continue
		}
		dist := r.track/d.params.Spindles - d.heads[spindle]
		if dist < 0 {
			dist = -dist
		}
		if dist < bestDist || (dist == bestDist && best >= 0 && r.track < d.queue[best].track) {
			best = i
			bestDist = dist
		}
	}
	return best
}
