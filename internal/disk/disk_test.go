package disk

import (
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/simclock"
)

func zeroClock() *simclock.Clock { return simclock.New(0) }

func TestReadCompletes(t *testing.T) {
	d := New(DefaultParams(), zeroClock())
	defer d.Close()
	done := make(chan struct{})
	go func() {
		d.Read(100, 2)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("read never completed")
	}
	st := d.Stats()
	if st.Requests != 1 || st.PagesRead != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestZeroPagesNoop(t *testing.T) {
	d := New(DefaultParams(), zeroClock())
	defer d.Close()
	d.Read(5, 0)
	if st := d.Stats(); st.Requests != 0 {
		t.Fatalf("zero-page read must be a no-op: %+v", st)
	}
}

func TestTrackWrap(t *testing.T) {
	d := New(DefaultParams(), zeroClock())
	defer d.Close()
	d.Read(-3, 1)        // negative wraps
	d.Read(1_000_000, 1) // beyond the surface wraps
	if st := d.Stats(); st.Requests != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

// heldParams give a disk whose writes hold their spindle for hold of wall
// time on a scale-1 clock while reads take microseconds: no transfer cost, a
// 10 ns seek per track and a 1 µs minimum.
func heldParams(spindles int, hold time.Duration) Params {
	return Params{Tracks: 4096, SeekPerTrack: 10 * time.Nanosecond, SeekMin: time.Microsecond,
		Spindles: spindles, WriteSettle: hold}
}

// queuedRequests counts the requests waiting on any spindle.
func queuedRequests(d *Disk) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for i := range d.spindles {
		n += len(d.spindles[i].queue)
	}
	return n
}

// readBehindHeld puts a write on holdTrack in service, submits a one-page read
// of each track while it holds its spindle, and waits until every read is
// queued. It returns then, before any read is served, with the wait group of
// the write and the reads.
func readBehindHeld(t *testing.T, d *Disk, clock *simclock.Clock, holdTrack int, tracks []int) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		d.Write(holdTrack, 1)
	}()
	for clock.VirtualSpent() == 0 { // the held write has started service
		runtime.Gosched()
	}
	for _, tr := range tracks {
		wg.Add(1)
		go func(tr int) {
			defer wg.Done()
			d.Read(tr, 1)
		}(tr)
	}
	for queuedRequests(d) < len(tracks) {
		if d.Stats().Requests > 0 {
			t.Fatalf("the held write finished before %d reads queued; lengthen the hold", len(tracks))
		}
		runtime.Gosched()
	}
	return &wg
}

// elevatorSeek is the seek time of serving first from head 0 and then tracks
// in the elevator's order: SortTracks from first, in head positions.
func elevatorSeek(p Params, first int, tracks []int) time.Duration {
	heads := make([]int, len(tracks))
	for i, tr := range tracks {
		heads[i] = tr / p.Spindles
	}
	cur := first / p.Spindles
	total := time.Duration(cur)*p.SeekPerTrack + p.SeekMin
	for _, h := range SortTracks(cur, heads) {
		total += time.Duration(max(h-cur, cur-h))*p.SeekPerTrack + p.SeekMin
		cur = h
	}
	return total
}

// TestConcurrentReads: reads that arrive while their spindle is busy queue
// behind it and are served nearest-head first; the queue depth counts them.
func TestConcurrentReads(t *testing.T) {
	params := heldParams(8, 250*time.Millisecond)
	clock := simclock.New(1)
	d := New(params, clock)
	defer d.Close()
	const n = 16
	tracks := make([]int, n) // all on spindle 3, scattered over the surface
	for i := range tracks {
		tracks[i] = (i*2371)%4096/8*8 + 3
	}
	readBehindHeld(t, d, clock, 2003, tracks).Wait()
	st := d.Stats()
	if st.Requests != n+1 || st.PagesRead != n || st.Writes != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.MaxQueue < n {
		t.Errorf("max queue %d, want at least %d", st.MaxQueue, n)
	}
	// The write starts at depth 1 and the reads at n, n-1, ..., 1.
	if want := float64(1+n*(n+1)/2) / float64(n+1); st.AvgQueue != want {
		t.Errorf("avg queue %v, want %v", st.AvgQueue, want)
	}
	if want := elevatorSeek(params, 2003, tracks); st.SeekTime != want {
		t.Errorf("seek time %v, want %v (the elevator's order)", st.SeekTime, want)
	}
}

// TestElevatorReducesSeek: requests queued at once are served in elevator
// order, which seeks less than serving them in arrival order.
func TestElevatorReducesSeek(t *testing.T) {
	params := heldParams(1, 250*time.Millisecond)
	tracks := []int{4000, 10, 3500, 600, 2800, 1200, 2000, 90, 3100, 1700,
		250, 3900, 850, 2400, 1500, 50, 3700, 950, 2600, 1100}
	const first = 2222
	clock := simclock.New(1)
	d := New(params, clock)
	defer d.Close()
	readBehindHeld(t, d, clock, first, tracks).Wait()

	queuedSeek := d.Stats().SeekTime
	if want := elevatorSeek(params, first, tracks); queuedSeek != want {
		t.Fatalf("seek time %v, want %v (the elevator's order)", queuedSeek, want)
	}
	serialSeek := time.Duration(first)*params.SeekPerTrack + params.SeekMin
	for i, tr := range tracks {
		prev := first
		if i > 0 {
			prev = tracks[i-1]
		}
		serialSeek += time.Duration(max(tr-prev, prev-tr))*params.SeekPerTrack + params.SeekMin
	}
	if queuedSeek > serialSeek/2 {
		t.Fatalf("elevator seek %v is not under half of arrival order's %v", queuedSeek, serialSeek)
	}
}

// TestIdleSpindleAllocatesNothing: a request that finds its spindle idle is
// served on the caller's goroutine without touching the heap — the shape of
// every WAL fsync at a zero clock.
func TestIdleSpindleAllocatesNothing(t *testing.T) {
	d := New(DefaultParams(), zeroClock())
	defer d.Close()
	if n := testing.AllocsPerRun(1000, func() { d.Write(4095, 1) }); n != 0 {
		t.Fatalf("an idle-spindle write allocates %v objects, want 0", n)
	}
}

// TestCloseWaitsForQueued: Close returns only once the request in service and
// those queued behind it have finished, each counted once; a request that
// arrives once Close has begun returns at once, uncounted.
func TestCloseWaitsForQueued(t *testing.T) {
	clock := simclock.New(1)
	d := New(heldParams(1, 100*time.Millisecond), clock)
	tracks := []int{100, 7, 3000, 42, 900}
	wg := readBehindHeld(t, d, clock, 500, tracks)
	closed := make(chan struct{})
	go func() {
		d.Close()
		close(closed)
	}()
	for {
		d.mu.Lock()
		c := d.closed
		d.mu.Unlock()
		if c {
			break
		}
		runtime.Gosched()
	}
	d.Read(1, 1) // the spindle is busy, but a closing disk does not queue it
	<-closed
	if st := d.Stats(); st.Requests != int64(len(tracks))+1 || st.PagesRead != int64(len(tracks)) {
		t.Fatalf("after Close: %+v, want the held write and %d reads", st, len(tracks))
	}
	wg.Wait()
	d.Read(2, 1)
	if st := d.Stats(); st.Requests != int64(len(tracks))+1 {
		t.Fatalf("a read after Close was counted: %+v", st)
	}
}

// TestNewStartsNoGoroutine: a disk is plain state; its requests run on
// their submitters.
func TestNewStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	disks := make([]*Disk, 100)
	for i := range disks {
		disks[i] = New(DefaultParams(), zeroClock())
	}
	if n := runtime.NumGoroutine(); n != before {
		t.Errorf("100 disks: %d goroutines, %d before", n, before)
	}
	for _, d := range disks {
		d.Close()
	}
	if n := runtime.NumGoroutine(); n != before {
		t.Errorf("100 disks closed: %d goroutines, %d before", n, before)
	}
}

// TestSpindleParallelism: with wall-clock sleeping enabled, N spindles must
// service N single-page reads roughly in parallel.
func TestSpindleParallelism(t *testing.T) {
	params := Params{
		Tracks: 64, SeekPerTrack: 0, SeekMin: 20 * time.Millisecond,
		TransferPerPage: 0, Spindles: 4,
	}
	d := New(params, simclock.New(1.0))
	defer d.Close()
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d.Read(i, 1) // tracks 0..3 → distinct spindles
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if elapsed > 65*time.Millisecond {
		t.Fatalf("4 spindles served 4 reads in %v; expected ~20ms", elapsed)
	}
}

func TestSortTracksHelper(t *testing.T) {
	got := SortTracks(0, []int{50, 10, 40})
	want := []int{10, 40, 50}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	got = SortTracks(45, []int{50, 10, 40})
	// nearest to 45 is 40, then 50, then 10
	want = []int{40, 50, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("from 45: got %v, want %v", got, want)
		}
	}
}

func TestCloseIdempotent(t *testing.T) {
	d := New(DefaultParams(), zeroClock())
	d.Close()
	d.Close()
	d.Read(1, 1) // read after close returns immediately
}

func TestWriteAccountsSeparately(t *testing.T) {
	d := New(DefaultParams(), zeroClock())
	defer d.Close()
	d.Write(10, 3)
	d.Write(11, 1)
	d.Read(12, 2)
	st := d.Stats()
	if st.Writes != 2 || st.PagesWritten != 4 {
		t.Fatalf("write stats: %+v", st)
	}
	if st.PagesRead != 2 {
		t.Fatalf("read stats polluted by writes: %+v", st)
	}
	if st.Requests != 3 {
		t.Fatalf("writes must ride the same elevator: %+v", st)
	}
}

// SortTracks is the order the elevator would serve tracks in from head,
// computed analytically.
func SortTracks(head int, tracks []int) []int {
	out := append([]int(nil), tracks...)
	res := make([]int, 0, len(out))
	cur := head
	for len(out) > 0 {
		sort.Ints(out)
		best, bestDist := 0, 1<<60
		for i, t := range out {
			dist := t - cur
			if dist < 0 {
				dist = -dist
			}
			if dist < bestDist {
				best, bestDist = i, dist
			}
		}
		cur = out[best]
		res = append(res, cur)
		out = append(out[:best], out[best+1:]...)
	}
	return res
}
