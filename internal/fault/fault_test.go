package fault

import (
	"errors"
	"testing"
	"time"

	"repro/internal/wal"
)

// Same seed, same per-kind answer sequence — even when the kinds are
// interrogated in a different interleaving (each kind owns its stream).
func TestDeterministicPerKind(t *testing.T) {
	record := func(order []Kind) map[Kind][]bool {
		in := New(42).RateAll(0.3)
		out := map[Kind][]bool{}
		for _, k := range order {
			out[k] = append(out[k], in.Should(k))
		}
		return out
	}
	interleaved := make([]Kind, 0, 60)
	for i := 0; i < 30; i++ {
		interleaved = append(interleaved, ConnReset, SyncErr)
	}
	blocked := make([]Kind, 0, 60)
	for i := 0; i < 30; i++ {
		blocked = append(blocked, SyncErr)
	}
	for i := 0; i < 30; i++ {
		blocked = append(blocked, ConnReset)
	}
	a, b := record(interleaved), record(blocked)
	for _, k := range []Kind{ConnReset, SyncErr} {
		if len(a[k]) != len(b[k]) {
			t.Fatalf("%v: %d vs %d decisions", k, len(a[k]), len(b[k]))
		}
		for i := range a[k] {
			if a[k][i] != b[k][i] {
				t.Fatalf("%v decision %d differs across interleavings", k, i)
			}
		}
	}
}

func TestScheduleFiresExactly(t *testing.T) {
	in := New(1).At(TornWrite, 3, 5)
	var fired []int64
	for i := int64(1); i <= 8; i++ {
		if in.Should(TornWrite) {
			fired = append(fired, i)
		}
	}
	if len(fired) != 2 || fired[0] != 3 || fired[1] != 5 {
		t.Fatalf("scheduled firings at %v, want [3 5]", fired)
	}
	if in.Fired(TornWrite) != 2 || in.Decisions(TornWrite) != 8 {
		t.Fatalf("counters fired=%d seen=%d, want 2/8", in.Fired(TornWrite), in.Decisions(TornWrite))
	}
}

func TestNilInjectorInert(t *testing.T) {
	var in *Injector
	if in.Should(ConnReset) || in.Fired(SyncErr) != 0 {
		t.Fatal("nil injector must never fire")
	}
	if in.DelayFor(SlowLink) != 0 || in.Decisions(SlowLink) != 0 {
		t.Fatal("nil injector must report zeros")
	}
	if len(in.Counts()) != 0 {
		t.Fatal("nil injector counts must be empty")
	}
}

func TestRateZeroNeverFires(t *testing.T) {
	in := New(7)
	for i := 0; i < 1000; i++ {
		if in.Should(SlowLink) {
			t.Fatal("unarmed kind fired")
		}
	}
}

func TestStoreInjectsSyncErr(t *testing.T) {
	in := New(3).At(SyncErr, 1)
	st := NewStore(wal.NewMemStore(), in)
	if _, err := st.AppendRecords([]wal.Record{{LSN: 1, Name: "q", SQL: "insert into t (id) values (?)", ArgSets: [][]any{{int64(1)}}}}); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := st.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("first sync: got %v, want injected error", err)
	}
	if err := st.Sync(); err != nil {
		t.Fatalf("second sync: %v", err)
	}
	// The failed sync must not have lost the append: the inner store still
	// holds the record after the retrying sync succeeds.
	_, recs, err := st.Load()
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(recs) != 1 || recs[0].LSN != 1 {
		t.Fatalf("inner store holds %v, want the one appended record", recs)
	}
}

func TestStoreStallDelays(t *testing.T) {
	in := New(5).At(SyncStall, 1).Delay(SyncStall, 20*time.Millisecond)
	st := NewStore(wal.NewMemStore(), in)
	start := time.Now()
	if err := st.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("stalled sync returned in %v, want ≥ 20ms", d)
	}
}

func TestKindStrings(t *testing.T) {
	seen := map[string]bool{}
	for k := Kind(0); k < numKinds; k++ {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("kind %d has empty or duplicate name %q", int(k), s)
		}
		seen[s] = true
	}
}
