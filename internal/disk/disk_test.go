package disk

import (
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

func TestConcurrentReads(t *testing.T) {
	d := New(DefaultParams(), zeroClock())
	defer d.Close()
	var wg sync.WaitGroup
	for i := 0; i < 200; i++ {
		wg.Add(1)
		go func(track int) {
			defer wg.Done()
			d.Read(track*13, 1)
		}(i)
	}
	wg.Wait()
	st := d.Stats()
	if st.Requests != 200 || st.PagesRead != 200 {
		t.Fatalf("stats: %+v", st)
	}
	if st.MaxQueue < 2 {
		t.Errorf("expected queueing under concurrency, max queue %d", st.MaxQueue)
	}
}

// TestElevatorReducesSeek: servicing many queued random requests must spend
// less seek time per request than servicing them one at a time, because each
// spindle picks the nearest queued track.
func TestElevatorReducesSeek(t *testing.T) {
	params := DefaultParams()
	params.Spindles = 1
	tracks := []int{4000, 10, 3500, 600, 2800, 1200, 2000, 90, 3100, 1700,
		250, 3900, 850, 2400, 1500, 50, 3700, 950, 2600, 1100}

	// Serial: one request at a time.
	d1 := New(params, zeroClock())
	for _, tr := range tracks {
		d1.Read(tr, 1)
	}
	serialSeek := d1.Stats().SeekTime
	d1.Close()

	// Queued: all requests outstanding at once.
	d2 := New(params, zeroClock())
	var wg sync.WaitGroup
	for _, tr := range tracks {
		wg.Add(1)
		go func(tr int) {
			defer wg.Done()
			d2.Read(tr, 1)
		}(tr)
	}
	wg.Wait()
	queuedSeek := d2.Stats().SeekTime
	d2.Close()

	if queuedSeek >= serialSeek {
		t.Fatalf("elevator did not reduce seek: queued %v >= serial %v", queuedSeek, serialSeek)
	}
	if queuedSeek > serialSeek/2 {
		t.Logf("note: modest elevator gain: %v vs %v", queuedSeek, serialSeek)
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
