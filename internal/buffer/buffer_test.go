package buffer

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/simclock"
)

func newPool(capacity int) (*Pool, *disk.Disk) {
	d := disk.New(disk.DefaultParams(), simclock.New(0))
	p := NewPool(capacity, d)
	p.MapExtent(0, 0)
	p.MapExtent(1, 2048)
	return p, d
}

// newPool1 builds a single-stripe pool, for tests that pin whole-pool
// eviction order.
func newPool1(capacity int) (*Pool, *disk.Disk) {
	d := disk.New(disk.DefaultParams(), simclock.New(0))
	p := NewPoolStripes(capacity, 1, d)
	p.MapExtent(0, 0)
	p.MapExtent(1, 2048)
	return p, d
}

// Resident reports whether a page is currently cached.
func (p *Pool) Resident(id PageID) bool {
	sl := p.slot(id, false)
	return sl != nil && sl.Load()&frameMask != 0
}

func TestHitMiss(t *testing.T) {
	p, d := newPool(16)
	defer d.Close()
	id := PageID{Extent: 0, Page: 3}
	p.Get(id.Extent, []int{id.Page})
	p.Get(id.Extent, []int{id.Page})
	hits, misses := p.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", hits, misses)
	}
	if !p.Resident(id) {
		t.Fatal("page not resident after get")
	}
}

// TestClockEviction: with every reference bit cleared by the sweep, CLOCK
// degenerates to FIFO — the oldest untouched page goes first — and the pool
// never exceeds capacity.
func TestClockEviction(t *testing.T) {
	p, d := newPool1(3)
	defer d.Close()
	for i := 0; i < 3; i++ {
		p.Get(0, []int{i})
	}
	p.Get(0, []int{9}) // sweep clears all refs, evicts page 0
	if p.Resident(PageID{Extent: 0, Page: 0}) {
		t.Fatal("oldest page not evicted")
	}
	if !p.Resident(PageID{Extent: 0, Page: 9}) {
		t.Fatal("faulted page not resident")
	}
	if p.Len() != 3 {
		t.Fatalf("capacity exceeded: %d", p.Len())
	}
}

// TestClockSecondChance: a page touched since the last sweep keeps its
// reference bit and survives the next eviction; the untouched page goes.
func TestClockSecondChance(t *testing.T) {
	p, d := newPool1(3)
	defer d.Close()
	for _, pg := range []int{0, 1, 2} {
		p.Get(0, []int{pg})
	}
	// Fault 3: the sweep clears refs on 0,1,2 and replaces 0. Hand now at 1.
	p.Get(0, []int{3})
	// Touch 2: its reference bit is set again.
	p.Get(0, []int{2})
	// Fault 4: hand finds 1 with ref clear — 2's second chance holds.
	p.Get(0, []int{4})
	if p.Resident(PageID{Extent: 0, Page: 1}) {
		t.Fatal("unreferenced page survived the sweep")
	}
	for _, pg := range []int{2, 3, 4} {
		if !p.Resident(PageID{Extent: 0, Page: pg}) {
			t.Fatalf("page %d evicted despite reference bit", pg)
		}
	}
}

func TestPreloadWarmsWithoutDisk(t *testing.T) {
	p, d := newPool(64)
	defer d.Close()
	p.Preload(0, 0, 32)
	for i := 0; i < 32; i++ {
		p.Get(0, []int{i})
	}
	hits, misses := p.Stats()
	if misses != 0 || hits != 32 {
		t.Fatalf("preload did not warm: hits=%d misses=%d", hits, misses)
	}
	if st := d.Stats(); st.Requests != 0 {
		t.Fatalf("preload must not touch the disk: %+v", st)
	}
}

func TestReset(t *testing.T) {
	p, d := newPool(8)
	defer d.Close()
	p.Get(0, []int{1})
	p.Reset()
	if p.Len() != 0 {
		t.Fatal("reset did not empty pool")
	}
	hits, misses := p.Stats()
	if hits != 0 || misses != 0 {
		t.Fatal("reset did not clear counters")
	}
}

func TestGetBatchSequential(t *testing.T) {
	p, d := newPool(128)
	p.Get(0, []int{2}) // one page already resident
	before := d.Stats().Requests
	p.GetBatch(0, 0, 10)
	after := d.Stats().Requests
	d.Close()
	if after-before != 1 {
		t.Fatalf("batch read must issue one disk request, got %d", after-before)
	}
	for i := 0; i < 10; i++ {
		if !p.Resident(PageID{Extent: 0, Page: i}) {
			t.Fatalf("page %d not resident after batch", i)
		}
	}
}

func TestPutDirtyNoDisk(t *testing.T) {
	p, d := newPool(8)
	defer d.Close()
	p.Put(PageID{Extent: 1, Page: 5})
	if st := d.Stats(); st.Requests != 0 {
		t.Fatal("Put must not read from disk (write-back model)")
	}
	p.Get(1, []int{5})
	hits, misses := p.Stats()
	if hits != 1 || misses != 0 {
		t.Fatalf("dirty page should hit: %d/%d", hits, misses)
	}
}

// TestConcurrentMissCoalescing: two concurrent misses on one page issue a
// single disk read (the shared-read path approximating shared scans).
func TestConcurrentMissCoalescing(t *testing.T) {
	for round := 0; round < 20; round++ {
		p, d := newPool(16)
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.Get(0, []int{7})
			}()
		}
		wg.Wait()
		st := d.Stats()
		d.Close()
		if st.Requests > 1 {
			t.Fatalf("round %d: %d disk reads for one page; want coalescing", round, st.Requests)
		}
	}
}

func TestConcurrentGetsRace(t *testing.T) {
	p, d := newPool(32)
	defer d.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				p.Get(g%2, []int{i % 40})
			}
		}(g)
	}
	wg.Wait()
	hits, misses := p.Stats()
	if hits+misses != 1600 {
		t.Fatalf("lost accesses: %d", hits+misses)
	}
}

// TestConcurrentMixedOpsUnderEviction drives Get, GetBatch, Preload, Put and
// Reset concurrently against a pool small enough that every stripe is
// constantly evicting. It pins the accounting invariant (no lost accesses)
// and, under -race, the stripe locking.
func TestConcurrentMixedOpsUnderEviction(t *testing.T) {
	d := disk.New(disk.DefaultParams(), simclock.New(0))
	defer d.Close()
	p := NewPoolStripes(64, 8, d)
	p.MapExtent(0, 0)
	p.MapExtent(1, 2048)

	const goroutines = 8
	const iters = 300
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < iters; i++ {
				switch rng.Intn(10) {
				case 0:
					p.Preload(0, rng.Intn(100), 8)
				case 1:
					p.GetBatch(1, rng.Intn(100), 6)
				case 2:
					p.Put(PageID{Extent: 1, Page: rng.Intn(200)})
				default:
					p.Get(0, []int{rng.Intn(200)})
				}
			}
		}(g)
	}
	wg.Wait()
	if n := p.Len(); n > 64 {
		t.Fatalf("pool exceeded capacity under concurrency: %d", n)
	}
	hits, misses := p.Stats()
	if hits+misses == 0 {
		t.Fatal("no accesses recorded")
	}
	// After the dust settles, a touched page must be resident again and
	// count exactly one access.
	p.Reset()
	p.Get(0, []int{1})
	hits, misses = p.Stats()
	if hits != 0 || misses != 1 || !p.Resident(PageID{Extent: 0, Page: 1}) {
		t.Fatalf("post-reset state wrong: hits=%d misses=%d", hits, misses)
	}
}

// refLRU replicates the pre-CLOCK pool's accounting exactly: a strict-LRU
// resident set with the same hit/miss rules (Preload and Put count nothing,
// GetBatch counts per page).
type refLRU struct {
	capacity int
	order    []PageID // front = most recent
	hits     int64
	misses   int64
}

func (l *refLRU) touch(id PageID, count bool) {
	for i, x := range l.order {
		if x == id {
			copy(l.order[1:i+1], l.order[:i])
			l.order[0] = id
			if count {
				l.hits++
			}
			return
		}
	}
	if count {
		l.misses++
	}
	if l.capacity > 0 && len(l.order) >= l.capacity {
		l.order = l.order[:l.capacity-1]
	}
	l.order = append([]PageID{id}, l.order...)
}

// TestTraceEquivalenceWithLRU replays a recorded mixed trace on a
// single-stripe CLOCK pool and on the reference LRU model. The trace's
// working set fits the capacity, where every sane replacement policy agrees,
// so the hit/miss totals — the accounting contract the experiments' warm/
// cold numbers rest on — must match the old pool exactly. (Under eviction
// pressure CLOCK approximates LRU and may evict differently; that behaviour
// is pinned by the CLOCK tests above, not by equivalence.)
func TestTraceEquivalenceWithLRU(t *testing.T) {
	p, d := newPool1(64)
	defer d.Close()
	ref := &refLRU{capacity: 64}

	rng := rand.New(rand.NewSource(7))
	type op struct{ kind, a, b int }
	var trace []op
	for i := 0; i < 500; i++ {
		trace = append(trace, op{kind: rng.Intn(10), a: rng.Intn(40), b: 1 + rng.Intn(8)})
	}
	for _, o := range trace {
		switch o.kind {
		case 0: // preload a run
			p.Preload(0, o.a, o.b)
			for pg := o.a; pg < o.a+o.b; pg++ {
				ref.touch(PageID{Extent: 0, Page: pg}, false)
			}
		case 1: // dirty put
			p.Put(PageID{Extent: 0, Page: o.a})
			ref.touch(PageID{Extent: 0, Page: o.a}, false)
		case 2, 3: // batched scan
			n := o.b
			if o.a+n > 40 {
				n = 40 - o.a
			}
			p.GetBatch(0, o.a, n)
			for pg := o.a; pg < o.a+n; pg++ {
				ref.touch(PageID{Extent: 0, Page: pg}, true)
			}
		default: // point get
			p.Get(0, []int{o.a})
			ref.touch(PageID{Extent: 0, Page: o.a}, true)
		}
	}
	hits, misses := p.Stats()
	if hits != ref.hits || misses != ref.misses {
		t.Fatalf("trace totals diverged: pool %d/%d, LRU reference %d/%d",
			hits, misses, ref.hits, ref.misses)
	}
	for pg := 0; pg < 40; pg++ {
		id := PageID{Extent: 0, Page: pg}
		want := false
		for _, x := range ref.order {
			if x == id {
				want = true
			}
		}
		if got := p.Resident(id); got != want {
			t.Fatalf("residency diverged on page %d: pool %v, reference %v", pg, got, want)
		}
	}
}

// TestStripedCountersSumAcrossStripes: a multi-stripe pool spreads pages over
// stripes but Stats/Len aggregate the whole pool.
func TestStripedCountersSumAcrossStripes(t *testing.T) {
	p, d := newPool(1 << 12)
	defer d.Close()
	if len(p.stripes) < 2 {
		t.Fatalf("expected a striped pool, got %d stripes", len(p.stripes))
	}
	for i := 0; i < 100; i++ {
		p.Get(0, []int{i})
	}
	for i := 0; i < 100; i++ {
		p.Get(0, []int{i})
	}
	hits, misses := p.Stats()
	if hits != 100 || misses != 100 {
		t.Fatalf("striped totals: hits=%d misses=%d, want 100/100", hits, misses)
	}
	if p.Len() != 100 {
		t.Fatalf("Len = %d, want 100", p.Len())
	}
}

// TestSharedAccessCounters pins the accounting the batched experiment
// asserts on: repeated touches of one page — sequential or concurrent with
// an in-flight read — cost exactly one miss (one disk read); every other
// access counts as a hit. This is the shared page access that makes a
// set-oriented batch cheaper than its per-query equivalent.
func TestSharedAccessCounters(t *testing.T) {
	p, d := newPool(64)
	defer d.Close()
	id := PageID{Extent: 0, Page: 9}
	const readers = 8
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Get(id.Extent, []int{id.Page})
		}()
	}
	wg.Wait()
	hits, misses := p.Stats()
	if misses != 1 {
		t.Fatalf("misses = %d, want 1 (concurrent reads must coalesce)", misses)
	}
	if hits != readers-1 {
		t.Fatalf("hits = %d, want %d", hits, readers-1)
	}
	if got := d.Stats().Requests; got != 1 {
		t.Fatalf("disk requests = %d, want 1", got)
	}
}

// testSeed resolves a randomized test's seed: ASYNCQ_SEED when set, the
// clock otherwise. It is logged, so a failure prints what reproduces it.
func testSeed(t *testing.T) int64 {
	seed, err := strconv.ParseInt(os.Getenv("ASYNCQ_SEED"), 10, 64)
	if err != nil || seed == 0 {
		seed = time.Now().UnixNano()
	}
	t.Logf("seed %d (reproduce with ASYNCQ_SEED=%d go test -run %s ./internal/buffer/)", seed, seed, t.Name())
	return seed
}

// refPool is the pool as it was before the page directory: per stripe, a
// map[PageID]int from page to frame and the reference bit in the frame. It
// lives on here, and only here, as the model the directory is checked
// against. It is sequential (no locks, no miss coalescing) and counts the disk
// requests the real pool would issue.
type refPool struct {
	stripes  []refStripe
	stripeOf func(PageID) int
	hits     int64
	misses   int64
	reads    int64
}

type refFrame struct {
	id  PageID
	ref bool
}

type refStripe struct {
	capacity int
	frames   []refFrame
	index    map[PageID]int
	hand     int
}

// newRefPool models p: the same stripe capacities and the same page-to-stripe
// hash, neither of which is what the model checks.
func newRefPool(p *Pool) *refPool {
	m := &refPool{stripes: make([]refStripe, len(p.stripes))}
	for i := range m.stripes {
		m.stripes[i] = refStripe{capacity: p.stripes[i].capacity, index: make(map[PageID]int)}
	}
	m.stripeOf = func(id PageID) int {
		s := p.stripeOf(id)
		for i := range p.stripes {
			if s == &p.stripes[i] {
				return i
			}
		}
		panic("page hashed to no stripe")
	}
	return m
}

func (m *refPool) stripe(id PageID) *refStripe { return &m.stripes[m.stripeOf(id)] }

func (m *refPool) Get(id PageID) {
	s := m.stripe(id)
	if fi, ok := s.index[id]; ok {
		s.frames[fi].ref = true
		m.hits++
		return
	}
	m.misses++
	m.reads++
	s.insert(id)
}

func (m *refPool) GetBatch(extent, firstPage, n int) {
	missFirst, missLast := -1, -1
	for i := 0; i < n; i++ {
		id := PageID{Extent: extent, Page: firstPage + i}
		s := m.stripe(id)
		if fi, ok := s.index[id]; ok {
			s.frames[fi].ref = true
			m.hits++
			continue
		}
		m.misses++
		if missFirst < 0 {
			missFirst = firstPage + i
		}
		missLast = firstPage + i
	}
	if missFirst < 0 {
		return
	}
	m.reads++
	m.Preload(extent, missFirst, missLast-missFirst+1)
}

func (m *refPool) Put(id PageID) { m.stripe(id).insert(id) }

func (m *refPool) Preload(extent, firstPage, n int) {
	for i := 0; i < n; i++ {
		m.Put(PageID{Extent: extent, Page: firstPage + i})
	}
}

func (m *refPool) Reset() {
	for i := range m.stripes {
		s := &m.stripes[i]
		s.frames = s.frames[:0]
		s.index = make(map[PageID]int)
		s.hand = 0
	}
	m.hits, m.misses = 0, 0
}

func (m *refPool) Resident(id PageID) bool {
	_, ok := m.stripe(id).index[id]
	return ok
}

func (m *refPool) Len() int {
	n := 0
	for i := range m.stripes {
		n += len(m.stripes[i].frames)
	}
	return n
}

func (s *refStripe) insert(id PageID) {
	if fi, ok := s.index[id]; ok {
		s.frames[fi].ref = true
		return
	}
	if s.capacity <= 0 || len(s.frames) < s.capacity {
		s.index[id] = len(s.frames)
		s.frames = append(s.frames, refFrame{id: id, ref: true})
		return
	}
	for {
		f := &s.frames[s.hand]
		if f.ref {
			f.ref = false
			s.hand++
			if s.hand == len(s.frames) {
				s.hand = 0
			}
			continue
		}
		delete(s.index, f.id)
		f.id = id
		f.ref = true
		s.index[id] = s.hand
		s.hand++
		if s.hand == len(s.frames) {
			s.hand = 0
		}
		return
	}
}

// TestModelTraceMatchesMapDirectory replays a seeded random trace of every
// operation on the pool and on the map-directory reference, over a pool small
// enough that every stripe evicts constantly and a page range that straddles a
// directory leaf. After every step the hit and miss counts, the resident
// count and the disk requests must agree; residency agrees page by page at
// sampled steps and at the end.
func TestModelTraceMatchesMapDirectory(t *testing.T) {
	seed := testSeed(t)
	const (
		firstPage = 1<<leafBits - 150 // the universe crosses from leaf 0 into leaf 1
		pages     = 300
		steps     = 20000
	)
	for _, stripes := range []int{1, 8} {
		t.Run(fmt.Sprintf("stripes=%d", stripes), func(t *testing.T) {
			d := disk.New(disk.DefaultParams(), simclock.New(0))
			defer d.Close()
			p := NewPoolStripes(48, stripes, d)
			p.MapExtent(0, 0)
			ref := newRefPool(p)
			rng := rand.New(rand.NewSource(seed))
			checkResidency := func(step int) {
				for ext := 0; ext < 2; ext++ {
					for pg := firstPage - 16; pg < firstPage+pages+16; pg++ {
						id := PageID{Extent: ext, Page: pg}
						if got, want := p.Resident(id), ref.Resident(id); got != want {
							t.Fatalf("step %d: Resident(%+v) = %v, reference %v", step, id, got, want)
						}
					}
				}
			}
			for step := 0; step < steps; step++ {
				id := PageID{Extent: rng.Intn(2), Page: firstPage + rng.Intn(pages)}
				n := 1 + rng.Intn(12)
				var op string
				switch k := rng.Intn(1000); {
				case k < 600:
					op = "Get"
					p.Get(id.Extent, []int{id.Page})
					ref.Get(id)
				case k < 750:
					op = "GetBatch"
					p.GetBatch(id.Extent, id.Page, n)
					ref.GetBatch(id.Extent, id.Page, n)
				case k < 850:
					op = "Put"
					p.Put(id)
					ref.Put(id)
				case k < 990:
					op = "Preload"
					p.Preload(id.Extent, id.Page, n)
					ref.Preload(id.Extent, id.Page, n)
				case k < 995:
					op = "Reset"
					p.Reset()
					ref.Reset()
				default:
					op = "Resident"
					checkResidency(step)
				}
				hits, misses := p.Stats()
				reads := d.Stats().Requests
				if hits != ref.hits || misses != ref.misses || p.Len() != ref.Len() || reads != ref.reads {
					t.Fatalf("step %d (%s %+v n=%d): pool hits/misses/len/reads %d/%d/%d/%d, reference %d/%d/%d/%d",
						step, op, id, n, hits, misses, p.Len(), reads, ref.hits, ref.misses, ref.Len(), ref.reads)
				}
			}
			checkResidency(steps)
		})
	}
}

// TestConcurrentHitRacesEviction hammers one hot page with Get while another
// goroutine keeps faulting cold pages through the same two-frame stripe, so
// the lock-free hit path runs against the CLOCK hand clearing and evicting the
// very slot it reads. Every call must count as exactly one hit or one miss,
// and afterwards every frame must still be named by the slot it holds and by
// no other.
func TestConcurrentHitRacesEviction(t *testing.T) {
	d := disk.New(disk.DefaultParams(), simclock.New(0))
	defer d.Close()
	p := NewPoolStripes(2, 1, d)
	p.MapExtent(0, 0)
	const (
		hotCalls  = 20000
		coldCalls = 5000
		coldPages = 8
	)
	hot := PageID{Extent: 0, Page: 7}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < hotCalls; i++ {
			p.Get(hot.Extent, []int{hot.Page})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < coldCalls; i++ {
			p.Get(0, []int{100 + i%coldPages})
		}
	}()
	wg.Wait()

	hits, misses := p.Stats()
	if hits+misses != hotCalls+coldCalls {
		t.Fatalf("hits %d + misses %d != %d calls", hits, misses, hotCalls+coldCalls)
	}
	s := &p.stripes[0]
	if len(s.frames) != 2 || p.Len() != 2 {
		t.Fatalf("a frame was lost: %d frames, Len %d, want 2", len(s.frames), p.Len())
	}
	for fi, sl := range s.frames {
		if got := int(sl.Load() & frameMask); got != fi+1 {
			t.Fatalf("frame %d holds a slot that names frame %d", fi, got-1)
		}
	}
	resident := 0
	for pg := 0; pg < 100+coldPages; pg++ {
		if p.Resident(PageID{Extent: 0, Page: pg}) {
			resident++
		}
	}
	if resident != 2 {
		t.Fatalf("%d pages resident in a two-frame pool", resident)
	}
}

// TestSetGetMatchesPageAtATime drives two pools with one seeded page
// sequence: one takes it a page per Get, the other in the ascending distinct
// sets an index access passes. Sets cross from one directory leaf into the
// next, whose pages sit at the same offsets (a set that kept the first leaf
// would touch the wrong slots), one extent is never mapped (its directory is
// first allocated by a miss inside a set), and the four-frame pools evict in
// the middle of a wide set; half the sets are one to three pages of a hot
// eight, so that even those pools hit. After every set the hit and miss
// counts, Len, the disk reads and every page's slot — frame and reference
// bit — must agree.
func TestSetGetMatchesPageAtATime(t *testing.T) {
	seed := testSeed(t)
	const steps = 3000
	var pages, hot []int // ascending: the last 24 slots of leaf 0, then of leaf 1
	for leaf := 1; leaf <= 2; leaf++ {
		for pg := leaf<<leafBits - 24; pg < leaf<<leafBits; pg++ {
			pages = append(pages, pg)
			if pg >= leaf<<leafBits-4 {
				hot = append(hot, pg)
			}
		}
	}
	for _, shape := range []struct{ capacity, stripes int }{{4, 1}, {4, 4}, {64, 8}} {
		t.Run(fmt.Sprintf("capacity=%d/stripes=%d", shape.capacity, shape.stripes), func(t *testing.T) {
			var pools [2]*Pool
			var disks [2]*disk.Disk
			for i := range pools {
				disks[i] = disk.New(disk.DefaultParams(), simclock.New(0))
				defer disks[i].Close()
				pools[i] = NewPoolStripes(shape.capacity, shape.stripes, disks[i])
				pools[i].MapExtent(0, 0)
				pools[i].MapExtent(1, 2048) // extent 2 is never mapped
			}
			one, set := pools[0], pools[1]
			state := func(p *Pool, id PageID) int32 {
				if sl := p.slot(id, false); sl != nil {
					return sl.Load()
				}
				return 0
			}
			rng := rand.New(rand.NewSource(seed))
			for step := 0; step < steps; step++ {
				ext := rng.Intn(3)
				from, odds := pages, 4 // a wide set
				if rng.Intn(2) == 0 {
					from, odds = hot, 3
				}
				var pgs []int
				for _, pg := range from {
					if rng.Intn(odds) == 0 {
						pgs = append(pgs, pg)
					}
				}
				for _, pg := range pgs {
					one.Get(ext, []int{pg})
				}
				set.Get(ext, pgs)
				h1, m1 := one.Stats()
				h2, m2 := set.Stats()
				r1, r2 := disks[0].Stats().Requests, disks[1].Stats().Requests
				if h1 != h2 || m1 != m2 || one.Len() != set.Len() || r1 != r2 {
					t.Fatalf("step %d (extent %d, %d pages): page at a time hits/misses/len/reads %d/%d/%d/%d, set %d/%d/%d/%d",
						step, ext, len(pgs), h1, m1, one.Len(), r1, h2, m2, set.Len(), r2)
				}
				for e := 0; e < 3; e++ {
					for _, pg := range pages {
						id := PageID{Extent: e, Page: pg}
						if a, b := state(one, id), state(set, id); a != b {
							t.Fatalf("step %d: slot of %+v is %#x page at a time, %#x by set", step, id, a, b)
						}
					}
				}
			}
			if h, m := set.Stats(); h == 0 || m == 0 {
				t.Fatalf("trace exercised hits %d, misses %d: want both", h, m)
			}
		})
	}
}
