// Package obs is the observability layer: a concurrency-safe metrics
// registry (counters, gauges, log-bucketed latency histograms) and
// per-request trace spans that record both wall-clock time and the
// simulated-latency charge behind it. It is a leaf package — nothing in
// this repo is imported from here — so every layer (wal, server,
// replica, shard, batch, exec, experiments, CLIs) can feed the same
// registry without import cycles.
package obs

import (
	"math/bits"
	"math/rand/v2"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: values below 32 (nanoseconds, in practice) get
// exact unit-width buckets; above that, each power-of-two octave is split
// into 32 sub-buckets, so any recorded value lands in a bucket whose width
// is at most 1/32 (~3.1%) of its value. int64 values therefore need
// (63-5)*32 + 64 = 1920 buckets at most; the actual maximum index for a
// positive int64 is 1887, so 1888 slots suffice.
const (
	histSubBits = 5
	histSub     = 1 << histSubBits // 32 sub-buckets per octave
	histBuckets = (62-histSubBits)*histSub + 2*histSub
)

// histStripes spreads concurrent Record calls across independent atomic
// arrays so the hot path never shares a cache line under contention. Must
// be a power of two.
const histStripes = 4

type histStripe struct {
	_       [64]byte // pad to keep stripes off each other's cache lines
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Histogram is a log-bucketed latency histogram safe for concurrent use.
// Record is allocation-free and lock-free: it picks one of a small number
// of stripes with the runtime's per-P cheap random source and does three
// atomic adds (plus a rare CAS when a new maximum is seen).
type Histogram struct {
	name    string
	stripes [histStripes]histStripe
}

// bucketOf maps a non-negative value to its bucket index.
func bucketOf(v int64) int {
	u := uint64(v)
	if u < histSub {
		return int(u)
	}
	exp := bits.Len64(u) - 1 // >= histSubBits
	m := u >> (exp - histSubBits)
	return (exp-histSubBits)*histSub + int(m)
}

// bucketBounds returns the [lo, hi) value range of bucket idx.
func bucketBounds(idx int) (lo, hi int64) {
	if idx < histSub {
		return int64(idx), int64(idx) + 1
	}
	shift := idx/histSub - 1
	m := int64(idx - shift*histSub)
	lo = m << shift
	hi = (m + 1) << shift
	if hi <= lo { // top bucket's upper edge overflows int64
		hi = 1<<63 - 1
	}
	return lo, hi
}

// Record adds one observation. Negative values clamp to zero.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	s := &h.stripes[rand.Uint32()&(histStripes-1)]
	s.count.Add(1)
	s.sum.Add(v)
	s.buckets[bucketOf(v)].Add(1)
	for {
		old := s.max.Load()
		if v <= old || s.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// RecordDuration records a duration in nanoseconds.
func (h *Histogram) RecordDuration(d time.Duration) { h.Record(int64(d)) }

// HistSnapshot is a point-in-time copy of a histogram. Snapshots are plain
// values: mergeable (associatively and commutatively) across shards,
// replicas, or time windows, and queryable for quantiles.
type HistSnapshot struct {
	Count   int64
	Sum     int64
	Max     int64
	Buckets []int64
}

// Snapshot folds all stripes into one mergeable snapshot. It is not a
// consistent cut under concurrent recording — counts may trail sums by
// in-flight records — which is the usual (and here acceptable) price of a
// lock-free record path.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{Buckets: make([]int64, histBuckets)}
	for i := range h.stripes {
		st := &h.stripes[i]
		s.Count += st.count.Load()
		s.Sum += st.sum.Load()
		if m := st.max.Load(); m > s.Max {
			s.Max = m
		}
		for b := range st.buckets {
			if n := st.buckets[b].Load(); n != 0 {
				s.Buckets[b] += n
			}
		}
	}
	return s
}

// Merge folds another snapshot into this one. Merging is associative and
// commutative, so per-shard snapshots can be combined in any grouping.
func (s *HistSnapshot) Merge(o HistSnapshot) {
	s.Count += o.Count
	s.Sum += o.Sum
	if o.Max > s.Max {
		s.Max = o.Max
	}
	if s.Buckets == nil {
		s.Buckets = make([]int64, histBuckets)
	}
	for i, n := range o.Buckets {
		s.Buckets[i] += n
	}
}

// Quantile returns an upper bound for the q-th quantile (0 < q <= 1): the
// upper edge of the bucket holding the ceil(q*Count)-th smallest value.
// The estimate is exact for values under 32 and within +3.2% above.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(q*float64(s.Count) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum int64
	for i, n := range s.Buckets {
		cum += n
		if cum >= rank {
			_, hi := bucketBounds(i)
			if hi > s.Max && s.Max > 0 {
				return s.Max
			}
			return hi
		}
	}
	return s.Max
}

// Mean returns the average recorded value, or 0 when empty.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}
