// Package disk simulates a set of rotating drives (spindles) with
// positional seek costs and elevator scheduling of queued requests. This is
// the mechanism behind the paper's observation that concurrently submitted
// queries let the database "reorder disk IO requests to minimize seeks"
// (§I): when many requests are queued on a spindle, it services them nearest
// head position first, so the average seek distance — and therefore the
// per-request latency — drops as concurrency rises. A cold buffer pool
// funnels page misses here, making the disk the bottleneck the paper's
// cold-cache experiments exercise.
//
// A request is served on the goroutine that submits it; the disk starts none.
// One that finds its spindle idle takes it at once (first-come), so at a zero
// clock nothing queues; one that finds it busy waits until handed the spindle.
package disk

import (
	"slices"
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

// request is one IO. A queued one waits for its spindle: the request that
// hands it over fills in seek, depth and start, then closes ready.
type request struct {
	track int
	seek  time.Duration
	depth int
	start time.Time // the hand-off; zero for a request that found its spindle idle
	ready chan struct{}
}

// spindle is one drive: its head position, whether a request is in service
// on it, and the requests waiting for it in arrival order.
type spindle struct {
	head  int
	busy  bool
	queue []*request
}

// Disk services requests in elevator order, one in service per spindle. A
// request runs on the goroutine that submits it; the disk starts none.
type Disk struct {
	params   Params
	clock    *simclock.Clock
	spindles []spindle
	wg       sync.WaitGroup // requests in service or queued, for Close

	mu           sync.Mutex // guards everything below and every spindle
	closed       bool
	waiting      int // requests queued or starting service, on any spindle
	requests     int64
	pagesRead    int64
	writes       int64
	pagesWritten int64
	seekTime     time.Duration
	busyTime     time.Duration
	maxQueue     int
	totalQueue   int64
}

// New returns an idle disk. It starts no goroutine.
func New(params Params, clock *simclock.Clock) *Disk {
	params.Spindles = max(params.Spindles, 1)
	return &Disk{params: params, clock: clock, spindles: make([]spindle, params.Spindles)}
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

// submit serves one request on the caller's goroutine. A request on track t
// belongs to spindle t mod Spindles (striping).
func (d *Disk) submit(track, pages int, write bool) {
	if pages <= 0 {
		return
	}
	if d.params.Tracks > 0 {
		track = ((track % d.params.Tracks) + d.params.Tracks) % d.params.Tracks
	}
	sp := &d.spindles[track%d.params.Spindles]
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.wg.Add(1)
	d.waiting++
	d.maxQueue = max(d.maxQueue, d.waiting)
	r := request{track: track}
	if !sp.busy {
		sp.busy = true
		r.seek, r.depth = d.startLocked(sp, track)
		d.mu.Unlock()
	} else {
		// Only a queued request is on the heap: the idle path allocates
		// nothing.
		q := &request{track: track, ready: make(chan struct{})}
		sp.queue = append(sp.queue, q)
		d.mu.Unlock()
		<-q.ready
		r = *q
	}

	service := r.seek + time.Duration(pages)*d.params.TransferPerPage
	if write {
		service += d.params.WriteSettle
	}
	// A handed request's service began at the hand-off, however late its
	// goroutine woke, so the spindle serves its queue back to back.
	d.clock.SleepFrom(r.start, service)

	d.mu.Lock()
	d.requests++
	if write {
		d.writes++
		d.pagesWritten += int64(pages)
	} else {
		d.pagesRead += int64(pages)
	}
	d.seekTime += r.seek
	d.busyTime += service
	d.totalQueue += int64(r.depth)
	d.handOffLocked(sp)
	d.mu.Unlock()
	d.wg.Done()
}

// startLocked starts a request on track: it moves sp's head there and
// returns the positioning cost and the queue depth the request starts
// service at (itself included).
func (d *Disk) startLocked(sp *spindle, track int) (time.Duration, int) {
	seek := time.Duration(d.dist(sp, track))*d.params.SeekPerTrack + d.params.SeekMin
	sp.head = track / d.params.Spindles
	d.waiting--
	return seek, d.waiting + 1
}

// dist is the head movement from sp's head to track.
func (d *Disk) dist(sp *spindle, track int) int {
	n := track/d.params.Spindles - sp.head
	return max(n, -n)
}

// Close refuses new requests, which then return at once uncounted, and
// waits until every request in service or queued behind one has finished.
func (d *Disk) Close() {
	d.mu.Lock()
	d.closed = true
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
	d.mu.Lock()
	defer d.mu.Unlock()
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

// handOffLocked gives sp to its queued request with the shortest seek from
// the head (a common SSTF/SCAN hybrid simplification), or leaves sp idle when
// none is queued. Ties resolve to the lowest track so order is deterministic.
func (d *Disk) handOffLocked(sp *spindle) {
	best, bestDist := -1, 1<<60
	for i, r := range sp.queue {
		dist := d.dist(sp, r.track)
		if dist < bestDist || (dist == bestDist && best >= 0 && r.track < sp.queue[best].track) {
			best, bestDist = i, dist
		}
	}
	if best < 0 {
		sp.busy = false
		return
	}
	next := sp.queue[best]
	sp.queue = slices.Delete(sp.queue, best, best+1)
	next.seek, next.depth = d.startLocked(sp, next.track)
	next.start = time.Now()
	close(next.ready)
}
