// Package fault is the seeded, deterministic fault-injection engine: one
// Injector decides — by per-kind rate, by per-kind schedule, or both —
// whether a given injection point fires. The injection points live in the
// layers under test (internal/net wraps connections and tears frames,
// internal/wal's store wrapper fails or stalls fsyncs, internal/replica
// crashes read copies), and the chaos differential suite
// (internal/experiments) asserts the system absorbs every fault the
// injector invents: byte-identical results, zero lost acknowledged writes,
// zero duplicated writes.
//
// Determinism: every kind draws from its own seeded stream, so the nth
// decision of a kind answers the same way for the same seed regardless of
// how other kinds interleave. Under concurrency the workload decides how
// many decision points each kind sees — the injector guarantees the answer
// sequence per kind, which is what makes a failing seed replayable.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Kind names one injectable fault.
type Kind int

const (
	// ConnReset tears down a client connection between requests (the
	// client injects it only while no write is in flight, so the loss is
	// always retry-safe — see internal/net's resilience contract).
	ConnReset Kind = iota
	// TornWrite cuts a request frame mid-write: the peer sees a partial
	// frame and kills the connection. The torn request provably never
	// decoded server-side, so even a torn write is safe to re-send.
	TornWrite
	// SlowLink delays a connection write by the kind's configured delay.
	SlowLink
	// SyncErr fails a WAL store fsync (before any bits reach the store).
	SyncErr
	// SyncStall delays a WAL store fsync by the kind's configured delay.
	SyncStall
	// ReplicaCrash kills a read replica at a read decision point; the
	// group fails it out and the circuit breaker's half-open probe
	// recovers it.
	ReplicaCrash

	numKinds
)

// String renders the kind for logs and counters.
func (k Kind) String() string {
	switch k {
	case ConnReset:
		return "conn-reset"
	case TornWrite:
		return "torn-write"
	case SlowLink:
		return "slow-link"
	case SyncErr:
		return "sync-err"
	case SyncStall:
		return "sync-stall"
	case ReplicaCrash:
		return "replica-crash"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// ErrInjected is the root of every injected error; layers test provenance
// with errors.Is(err, fault.ErrInjected).
var ErrInjected = errors.New("fault: injected")

// ErrSync is the injected fsync failure returned by Store.Sync.
var ErrSync = fmt.Errorf("%w: fsync error", ErrInjected)

type kindState struct {
	rng   *rand.Rand
	rate  float64
	sched map[int64]bool // decision ordinals forced to fire
	delay time.Duration
	seen  int64
	fired int64
}

// Injector decides fault firings. The zero value and the nil injector are
// inert (Should always answers false), so production paths thread a nil
// *Injector at zero cost. All methods are safe for concurrent use.
type Injector struct {
	seed int64

	mu    sync.Mutex
	kinds [numKinds]kindState
}

// New builds an injector whose decisions are a pure function of seed and
// the per-kind decision ordinal.
func New(seed int64) *Injector {
	in := &Injector{seed: seed}
	for k := range in.kinds {
		in.kinds[k].rng = rand.New(rand.NewSource(seed + int64(k)*7919))
	}
	return in
}

// Seed reports the seed (logged so a failing run is replayable).
func (in *Injector) Seed() int64 { return in.seed }

// Rate arms kind k to fire each decision independently with probability p.
// Chainable.
func (in *Injector) Rate(k Kind, p float64) *Injector {
	in.mu.Lock()
	in.kinds[k].rate = p
	in.mu.Unlock()
	return in
}

// RateAll arms every kind at probability p. Chainable.
func (in *Injector) RateAll(p float64) *Injector {
	for k := range in.kinds {
		in.Rate(Kind(k), p)
	}
	return in
}

// At schedules kind k to fire on exactly its nth decision points (1-based),
// on top of any rate. Schedules make "a fault fires mid-workload" a
// guarantee instead of a probability. Chainable.
func (in *Injector) At(k Kind, nth ...int64) *Injector {
	in.mu.Lock()
	if in.kinds[k].sched == nil {
		in.kinds[k].sched = map[int64]bool{}
	}
	for _, n := range nth {
		in.kinds[k].sched[n] = true
	}
	in.mu.Unlock()
	return in
}

// Delay sets the stall duration for delaying kinds (SlowLink, SyncStall).
// Chainable.
func (in *Injector) Delay(k Kind, d time.Duration) *Injector {
	in.mu.Lock()
	in.kinds[k].delay = d
	in.mu.Unlock()
	return in
}

// Should records one decision point for kind k and reports whether the
// fault fires there. Nil-safe: a nil injector never fires.
func (in *Injector) Should(k Kind) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	st := &in.kinds[k]
	st.seen++
	fire := st.sched[st.seen]
	if !fire && st.rate > 0 && st.rng != nil && st.rng.Float64() < st.rate {
		fire = true
	}
	if fire {
		st.fired++
	}
	return fire
}

// DelayFor returns the configured stall for kind k (nil-safe).
func (in *Injector) DelayFor(k Kind) time.Duration {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.kinds[k].delay
}

// Decisions reports how many decision points kind k has seen (nil-safe).
func (in *Injector) Decisions(k Kind) int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.kinds[k].seen
}

// Fired reports how many times kind k has fired (nil-safe).
func (in *Injector) Fired(k Kind) int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.kinds[k].fired
}

// Counts snapshots fired/seen per kind for logging ("conn-reset": fired).
func (in *Injector) Counts() map[string]int64 {
	out := map[string]int64{}
	if in == nil {
		return out
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for k := range in.kinds {
		out[Kind(k).String()] = in.kinds[k].fired
	}
	return out
}
