// Package buffer implements the database server's buffer pool. The paper's
// warm-vs-cold cache dimension falls out of this component: a warm run
// starts with the working set resident (Preload), a cold run starts empty
// and pays disk reads on first touch. Concurrently submitted queries that
// touch overlapping pages also benefit here — the second request finds the
// page already cached — which approximates the "shared scans" effect the
// paper cites (§I).
//
// The pool is N-way striped by PageID hash: each stripe owns a fixed share
// of the capacity behind its own mutex, and evicts with CLOCK (second chance)
// over a flat frame slice. Residency lives in a directly addressed page
// directory, not a hash map: per extent, a two-level radix table of atomic
// slots, one per page, allocated on demand and never moved. A slot holds its
// page's frame index plus one and the CLOCK reference bit. A warm Get of a set
// of pages costs one directory walk and one counter add per call, not per
// page, and a slot load per page: no mutex, no allocation. Whatever changes
// which page a frame holds (a miss's or GetBatch's insert, eviction, Put,
// Preload, Reset) runs under the stripe mutex. A hit that races the eviction
// of its page counts as a hit just before it; the reference bit it may leave
// on the emptied slot is overwritten by the page's next insert.
package buffer

import (
	"sync"
	"sync/atomic"

	"repro/internal/disk"
)

// PageID identifies a page: a storage extent plus a page number within it.
// Both are non-negative.
type PageID struct {
	Extent int
	Page   int
}

// A slot is one page's directory entry: zero when the page is not resident,
// else its frame's index in the owning stripe plus one, with refBit set while
// the page has been touched since the CLOCK hand last passed it.
type slot = atomic.Int32

const (
	refBit    = 1 << 30
	frameMask = refBit - 1
)

// touch reports whether sl's page is resident, giving it a second chance if
// so: the whole of a warm hit, under no lock.
func touch(sl *slot) bool {
	v := sl.Load()
	if v&frameMask == 0 {
		return false
	}
	if v&refBit == 0 {
		sl.Or(refBit)
	}
	return true
}

// table is a grow-only array of pointers that readers index without a lock:
// a writer (holding Pool.growMu) publishes a longer copy of the array, and the
// values pointed to never move.
type table[T any] struct{ p atomic.Pointer[[]*T] }

// at returns entry i, or nil when it has not been allocated.
func (t *table[T]) at(i int) *T {
	if s := t.p.Load(); s != nil && uint(i) < uint(len(*s)) {
		return (*s)[i]
	}
	return nil
}

// ensure returns entry i, allocating it zeroed if absent, under Pool.growMu.
func (t *table[T]) ensure(i int) *T {
	if e := t.at(i); e != nil {
		return e
	}
	var old []*T
	if s := t.p.Load(); s != nil {
		old = *s
	}
	grown := make([]*T, max(len(old), i+1))
	copy(grown, old)
	grown[i] = new(T)
	t.p.Store(&grown)
	return grown[i]
}

// leafBits sizes the directory's second level: 1024 slots (4 KB) per leaf.
const leafBits = 10

type leaf [1 << leafBits]slot

// extentDir is one extent's share of the directory, plus its starting disk
// track (written during load, read on every miss); pages lay out sequentially
// from there.
type extentDir struct {
	track  atomic.Int64
	leaves table[leaf]
}

// stripe is one independently locked shard of the pool; a frame is the slot of
// the page it holds. The pad keeps adjacent stripes off each other's lines.
type stripe struct {
	mu       sync.Mutex
	capacity int
	frames   []*slot // grows to capacity, then CLOCK recycles in place
	hand     int
	hits     atomic.Int64 // a Get adds its warm hits to its first page's stripe
	misses   atomic.Int64
	pending  map[PageID]*sync.WaitGroup // in-flight reads, to dedupe
	_        [56]byte                   // rounds the struct to 128 bytes (two lines)
}

// Pool is a fixed-capacity striped page cache backed by a simulated disk.
type Pool struct {
	stripes []stripe
	mask    uint64 // len(stripes) - 1; stripe count is a power of two
	disk    *disk.Disk

	growMu  sync.Mutex // serialises directory growth; taken inside a stripe's mu
	extents table[extentDir]
}

// defaultStripeTarget bounds the stripe count: enough ways that the shard
// benchmarks' worker counts don't convoy, few enough that tiny test pools
// keep whole-pool eviction semantics.
const defaultStripeTarget = 64

// NewPool creates a pool of the given page capacity over d, picking a
// stripe count so each stripe holds at least a few dozen frames (a pool
// smaller than that gets one stripe and behaves like the classic single-lock
// pool).
func NewPool(capacity int, d *disk.Disk) *Pool {
	n := 1
	for n < defaultStripeTarget && n*128 <= capacity {
		n *= 2
	}
	return NewPoolStripes(capacity, n, d)
}

// NewPoolStripes creates a pool with an explicit stripe count (rounded up to
// a power of two; minimum 1; capped at the capacity so every stripe owns at
// least one frame — a zero-capacity stripe would be unbounded). Tests use
// stripes=1 to get deterministic whole-pool eviction.
func NewPoolStripes(capacity, stripes int, d *disk.Disk) *Pool {
	n := 1
	for n < stripes {
		n *= 2
	}
	if capacity > 0 {
		for n > capacity {
			n /= 2
		}
	}
	p := &Pool{
		stripes: make([]stripe, n),
		mask:    uint64(n - 1),
		disk:    d,
	}
	base, rem := capacity/n, capacity%n
	for i := range p.stripes {
		s := &p.stripes[i]
		s.capacity = base
		if i < rem {
			s.capacity++
		}
		s.pending = make(map[PageID]*sync.WaitGroup)
	}
	return p
}

// stripeOf hashes a page to its stripe (FNV-1a over the two coordinates).
func (p *Pool) stripeOf(id PageID) *stripe {
	h := uint64(14695981039346656037)
	const prime = 1099511628211
	u := uint64(id.Extent)<<32 ^ uint64(uint32(id.Page))
	for b := 0; b < 8; b++ {
		h ^= u & 0xff
		h *= prime
		u >>= 8
	}
	return &p.stripes[h&p.mask]
}

// slot returns id's directory entry. A page that was never resident may have
// none yet: then slot returns nil, or allocates it if create is set.
func (p *Pool) slot(id PageID, create bool) *slot {
	var l *leaf
	if e := p.extents.at(id.Extent); e != nil {
		l = e.leaves.at(id.Page >> leafBits)
	}
	if l == nil {
		if !create {
			return nil
		}
		p.growMu.Lock()
		l = p.extents.ensure(id.Extent).leaves.ensure(id.Page >> leafBits)
		p.growMu.Unlock()
	}
	return &l[id.Page&(1<<leafBits-1)]
}

// MapExtent assigns an extent's starting track.
func (p *Pool) MapExtent(extent, startTrack int) {
	p.growMu.Lock()
	p.extents.ensure(extent).track.Store(int64(startTrack))
	p.growMu.Unlock()
}

func (p *Pool) track(id PageID) int {
	if e := p.extents.at(id.Extent); e != nil {
		return int(e.track.Load()) + id.Page
	}
	return id.Page
}

// Get touches a set of one extent's pages, ascending and distinct (what an
// index access computes): one directory walk, a CLOCK second chance per
// resident page, one counter add for the call's hits, and the miss path, disk
// time included, for each other page. Hits, misses, reference bits, residency
// and disk reads are those of one call per page, in order. A hit takes no mutex.
func (p *Pool) Get(extent int, pages []int) {
	var hits int64
	e, li, l := p.extents.at(extent), -1, (*leaf)(nil)
	for _, pg := range pages {
		if pg>>leafBits != li && e != nil {
			li, l = pg>>leafBits, e.leaves.at(pg>>leafBits)
		}
		if l != nil && touch(&l[pg&(1<<leafBits-1)]) {
			hits++
			continue
		}
		p.fault(PageID{Extent: extent, Page: pg})
		e, li, l = p.extents.at(extent), -1, nil // the miss may have grown the directory
	}
	if hits > 0 {
		p.stripeOf(PageID{Extent: extent, Page: pages[0]}).hits.Add(hits)
	}
}

// fault is Get's miss path: concurrent misses on a page share one disk read.
func (p *Pool) fault(id PageID) {
	s := p.stripeOf(id)
	s.mu.Lock()
	sl := p.slot(id, true)
	if wg, reading := s.pending[id]; reading || touch(sl) {
		// Another request is reading this page: wait for it, the shared-read
		// path. (Or the page became resident since the look above.)
		s.hits.Add(1)
		s.mu.Unlock()
		if reading {
			wg.Wait()
		}
		return
	}
	s.misses.Add(1)
	wg := &sync.WaitGroup{}
	wg.Add(1)
	s.pending[id] = wg
	s.mu.Unlock()

	p.disk.Read(p.track(id), 1)

	s.mu.Lock()
	delete(s.pending, id)
	s.insertLocked(sl)
	s.mu.Unlock()
	wg.Done()
}

// GetBatch faults in a contiguous run of pages of one extent, paying a
// single batched disk request for the missing ones (sequential IO, e.g. a
// table scan).
func (p *Pool) GetBatch(extent, firstPage, n int) {
	if n <= 0 {
		return
	}
	missFirst, missLast := -1, -1
	for i := 0; i < n; i++ {
		id := PageID{Extent: extent, Page: firstPage + i}
		s := p.stripeOf(id)
		if sl := p.slot(id, false); sl != nil && touch(sl) {
			s.hits.Add(1)
			continue
		}
		s.misses.Add(1)
		if missFirst < 0 {
			missFirst = firstPage + i
		}
		missLast = firstPage + i
	}
	if missFirst < 0 {
		return
	}
	// Sequential IO reads the whole span from the first to the last missing
	// page in one sweep (interior hits transfer for free under the head).
	p.disk.Read(p.track(PageID{Extent: extent, Page: missFirst}), missLast-missFirst+1)
	p.Preload(extent, missFirst, missLast-missFirst+1)
}

// Put marks a page dirty-resident without disk IO (write-back model for
// inserts; background flushing is not simulated, matching the paper's
// Experiment 4 observation that insert performance is cache-independent).
func (p *Pool) Put(id PageID) {
	s := p.stripeOf(id)
	s.mu.Lock()
	s.insertLocked(p.slot(id, true))
	s.mu.Unlock()
}

// Preload marks a range of pages resident without disk time (warming the
// cache before a warm-cache experiment).
func (p *Pool) Preload(extent, firstPage, n int) {
	for i := 0; i < n; i++ {
		p.Put(PageID{Extent: extent, Page: firstPage + i})
	}
}

// Reset empties the pool (cold start) and clears counters.
func (p *Pool) Reset() {
	for i := range p.stripes {
		s := &p.stripes[i]
		s.mu.Lock()
		for _, sl := range s.frames {
			sl.Store(0)
		}
		s.frames = s.frames[:0]
		s.hand = 0
		s.hits.Store(0)
		s.misses.Store(0)
		s.mu.Unlock()
	}
}

// Stats returns hit/miss counters summed over the stripes.
func (p *Pool) Stats() (hits, misses int64) {
	for i := range p.stripes {
		hits += p.stripes[i].hits.Load()
		misses += p.stripes[i].misses.Load()
	}
	return hits, misses
}

// Len returns the number of cached pages.
func (p *Pool) Len() int {
	n := 0
	for i := range p.stripes {
		s := &p.stripes[i]
		s.mu.Lock()
		n += len(s.frames)
		s.mu.Unlock()
	}
	return n
}

// insertLocked makes sl's page resident in the stripe, evicting with CLOCK
// when the stripe is at capacity. New pages enter with their reference bit set
// (one second chance, the most-recently-used position of a fresh LRU insert);
// a resident page has its bit refreshed, the MRU promotion LRU gave on
// Preload/Put. A non-positive capacity means unbounded. Under the stripe mutex
// this is a slot's only writer but for a concurrent hit setting the bit.
func (s *stripe) insertLocked(sl *slot) {
	if touch(sl) {
		return
	}
	if s.capacity <= 0 || len(s.frames) < s.capacity {
		s.frames = append(s.frames, sl)
		sl.Store(int32(len(s.frames)) | refBit)
		return
	}
	for {
		victim := s.frames[s.hand]
		fi := s.hand
		s.hand++
		if s.hand == len(s.frames) {
			s.hand = 0
		}
		if victim.Load()&refBit != 0 {
			victim.And(^refBit)
			continue
		}
		victim.Store(0)
		s.frames[fi] = sl
		sl.Store(int32(fi+1) | refBit)
		return
	}
}
