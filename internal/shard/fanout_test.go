package shard

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/interp"
	"repro/internal/query"
	"repro/internal/server"
)

// hooked is a backend that runs before ahead of every call the router makes to
// it; an error from before fails the call instead.
type hooked struct {
	Backend
	before func(c *query.Call) error
}

func (b hooked) Do(c *query.Call, rep *query.Reply) {
	if err := b.before(c); err != nil {
		c.Fail(err, rep)
		return
	}
	c.On(b.Backend, rep)
}

// hookedRouter partitions ref (newFixture's) over n bare servers, each wrapped
// in hooked with before(shard, call).
func hookedRouter(t *testing.T, ref *server.Server, n int, before func(shard int, c *query.Call) error) *Router {
	t.Helper()
	backends := make([]Backend, n)
	for i := range backends {
		backends[i] = hooked{server.New(server.SYS1(), 0), func(c *query.Call) error { return before(i, c) }}
	}
	r := NewWithBackends(backends, fixtureKeys())
	t.Cleanup(r.Close)
	if err := r.LoadFrom(ref); err != nil {
		t.Fatal(err)
	}
	return r
}

// The legs of one fan-out run at the same time when a worker is free: each of
// the two shards' backends holds its leg until the other leg has started, so a
// fan-out that ran its legs one after the other on the caller would fail every
// call here. Scatters, broadcasts and split batches all fan out.
func TestFanoutLegsOverlap(t *testing.T) {
	var meet atomic.Pointer[rendezvous]
	ref, _ := newFixture(t, 1)
	r := hookedRouter(t, ref, 2, func(shard int, _ *query.Call) error {
		if m := meet.Load(); m != nil {
			return m.arrive(shard)
		}
		return nil
	})
	for i := 0; i < 20; i++ {
		meet.Store(newRendezvous())
		q := "select uid from users where name = ?"
		want, wantErr := ref.Exec(query.Req("q", q, []any{fmt.Sprintf("u%d", i)})).Pair()
		got, gotErr := r.Exec(query.Req("q", q, []any{fmt.Sprintf("u%d", i)})).Pair()
		same(t, fmt.Sprintf("scatter %d", i), want, got, wantErr, gotErr)

		meet.Store(newRendezvous())
		ins := query.Req("ins", "insert into logs values (?, ?)", []any{int64(1000 + i), "overlap"})
		if err := r.Exec(ins).Err; err != nil {
			t.Fatalf("broadcast %d: %v", i, err)
		}

		// A batch with a binding on each shard is split into two sub-batches.
		const pt = "select name from users where uid = ?"
		var sets [][]any
		for uid, on := int64(4*i), [2]bool{}; !on[0] || !on[1]; uid++ {
			if s := r.BatchGroup("b", pt, []any{uid}); !on[s] {
				on[s] = true
				sets = append(sets, []any{uid})
			}
		}
		meet.Store(newRendezvous())
		wantVals, wantErrs := ref.ExecBatch(query.BatchReq("b", pt, sets)).Pair()
		gotVals, gotErrs := r.ExecBatch(query.BatchReq("b", pt, sets)).Pair()
		for j := range sets {
			same(t, fmt.Sprintf("split %d binding %d", i, j), wantVals[j], gotVals[j], wantErrs[j], gotErrs[j])
		}
	}
}

// rendezvous lets each of two legs proceed only once the other has arrived.
type rendezvous struct {
	arrived atomic.Int32
	all     chan struct{}
}

func newRendezvous() *rendezvous { return &rendezvous{all: make(chan struct{})} }

func (m *rendezvous) arrive(shard int) error {
	if m.arrived.Add(1) == 2 {
		close(m.all)
	}
	select {
	case <-m.all:
		return nil
	case <-time.After(5 * time.Second):
		return fmt.Errorf("shard %d: the other leg never started", shard)
	}
}

// Every leg runs exactly once, whichever of its worker and its caller claims
// it: concurrent scatters and broadcasts over two and three shards, each call
// told apart by its argument, and a backend that counts the calls it gets per
// argument.
func TestEveryLegRunsExactlyOnce(t *testing.T) {
	for _, shards := range []int{2, 3} {
		t.Run(fmt.Sprintf("%d shards", shards), func(t *testing.T) {
			var mu sync.Mutex
			calls := map[string]int{} // "shard/argument" -> calls
			ref, _ := newFixture(t, 1)
			r := hookedRouter(t, ref, shards, func(shard int, c *query.Call) error {
				if len(c.Args) > 0 {
					mu.Lock()
					calls[fmt.Sprint(shard, "/", c.Args[0])]++
					mu.Unlock()
				}
				return nil
			})
			const callers, each = 8, 50
			var wg sync.WaitGroup
			errs := make(chan error, callers*each)
			for g := 0; g < callers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < each; i++ {
						n := int64(g*each + i)
						if i%2 == 0 {
							res := r.Exec(query.Req("q", "select uid from users where name = ?", []any{fmt.Sprintf("n%d", n)}))
							if rs, ok := res.Value.(interp.Rows); res.Err != nil || !ok || len(rs) != 0 {
								errs <- fmt.Errorf("scatter %d: %v, %v", n, res.Value, res.Err)
							}
						} else if err := r.Exec(query.Req("ins", "insert into logs values (?, ?)", []any{n, "once"})).Err; err != nil {
							errs <- fmt.Errorf("broadcast %d: %v", n, err)
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			for g := 0; g < callers*each; g++ {
				arg := any(int64(g))
				if g%2 == 0 {
					arg = fmt.Sprintf("n%d", g)
				}
				for s := 0; s < shards; s++ {
					if n := calls[fmt.Sprint(s, "/", arg)]; n != 1 {
						t.Errorf("shard %d ran the leg of call %v %d times, want 1", s, arg, n)
					}
				}
			}
		})
	}
}

// waitGoroutines waits until no more than want goroutines are left.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	n := runtime.NumGoroutine()
	for i := 0; i < 200 && n > want; i++ {
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > want {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines, want at most %d\n%s", n, want, buf[:runtime.Stack(buf, true)])
	}
}

// The leg workers grow with a burst and shrink when it ends: 64 scatters held
// in their backends at once keep 64 handed-off legs running, the set falls
// back to parkedLegs parked workers, and Close leaves none.
func TestLegWorkersShrinkAndLeakNothing(t *testing.T) {
	const depth = 64
	var hold atomic.Bool
	var held sync.WaitGroup
	release := make(chan struct{})
	ref, _ := newFixture(t, 1)
	base := runtime.NumGoroutine()
	r := hookedRouter(t, ref, 2, func(shard int, _ *query.Call) error {
		if hold.Load() {
			held.Done()
			<-release
		}
		return nil
	})
	built := runtime.NumGoroutine() // the backends' own goroutines; no leg worker yet

	hold.Store(true)
	held.Add(2 * depth)
	var wg sync.WaitGroup
	failed := make(chan error, depth)
	for i := 0; i < depth; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := r.Exec(query.Req("q", "select uid from users where name = ?", []any{"u1"})).Err; err != nil {
				failed <- err
			}
		}()
	}
	// All 128 legs are executing at once: no leg waited for another's worker.
	all := make(chan struct{})
	go func() { held.Wait(); close(all) }()
	select {
	case <-all:
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatal("the burst's legs never all ran at once")
	}
	hold.Store(false)
	close(release)
	wg.Wait()
	close(failed)
	for err := range failed {
		t.Error(err)
	}
	// The burst is over: one more scatter still works, and only the parked
	// workers remain beside the backends' goroutines.
	if err := r.Exec(query.Req("q", "select uid from users where name = ?", []any{"u2"})).Err; err != nil {
		t.Fatalf("after the burst: %v", err)
	}
	waitGoroutines(t, built+parkedLegs)
	r.Close()
	waitGoroutines(t, base)
	// A call after Close still fans out, each leg on a worker of its own that
	// exits with it.
	r.Exec(query.Req("q", "select uid from users where name = ?", []any{"u3"}))
	waitGoroutines(t, base)
}
