package net

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/query"
)

// nextEcho is a Next for echoBackend: one int64 argument from the worker's
// generator.
func nextEcho(r *rand.Rand) query.Request {
	return query.Req("double", "q", []any{r.Int63n(1000)})
}

// A closed loop with as many connections as the admission budget keeps every
// slot busy and never exceeds it: nothing sheds, every request completes.
func TestRunLoadClosedLoopAtBudget(t *testing.T) {
	s := startServer(t, echoBackend(), ServerOptions{MaxInflight: 4})
	rep, err := RunLoad(LoadOptions{Addr: s.Addr(), Conns: 4, Duration: 200 * time.Millisecond, Next: nextEcho})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(); err != nil {
		t.Fatalf("%v (%+v)", err, rep)
	}
	if rep.Mode != "closed" || rep.Shed != 0 || rep.Sent != rep.Completed || rep.ThroughputRPS <= 0 {
		t.Fatalf("closed loop at the budget: %+v", rep)
	}
}

// An open loop keeps offering load past capacity (4 slots of 2ms work, five
// times that offered): the overflow is shed at the door and every request is
// still answered.
func TestRunLoadOpenLoopOverload(t *testing.T) {
	backend := &stubBackend{exec: func(query.Request) query.Result {
		time.Sleep(2 * time.Millisecond)
		return query.Ok(int64(1))
	}}
	s := startServer(t, backend, ServerOptions{MaxInflight: 4})
	rep, err := RunLoad(LoadOptions{
		Addr: s.Addr(), Conns: 16, Rate: 10000, Duration: 300 * time.Millisecond,
		Deadline: 250 * time.Millisecond, Next: nextEcho,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(); err != nil {
		t.Fatalf("%v (%+v)", err, rep)
	}
	if rep.Mode != "open" || rep.Shed == 0 || rep.Completed == 0 || rep.Hung != 0 {
		t.Fatalf("open loop at 5x capacity: %+v", rep)
	}
}

// A Target is driven in place by Conns workers, and Requests bounds the run by
// work: exactly that many requests are built, issued and completed, over a
// measured time.
func TestRunLoadTargetsAndRequests(t *testing.T) {
	const n = 500
	var mu sync.Mutex
	seen := map[int64]int{}
	backend := &stubBackend{exec: func(req query.Request) query.Result {
		mu.Lock()
		seen[req.Args[0].(int64)]++
		mu.Unlock()
		return query.Ok(int64(1))
	}}
	var next atomic.Int64
	rep, err := RunLoad(LoadOptions{
		Target:   backend,
		Conns:    4,
		Requests: n,
		Next: func(*rand.Rand) query.Request {
			return query.Req("ins", "q", []any{next.Add(1)})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(); err != nil {
		t.Fatalf("%v (%+v)", err, rep)
	}
	if rep.Conns != 4 || rep.Sent != n || rep.Completed != n || rep.Duration <= 0 || rep.ThroughputRPS <= 0 {
		t.Fatalf("count-bound run over targets: %+v", rep)
	}
	if next.Load() != n || len(seen) != n {
		t.Fatalf("Next called %d times, %d distinct ids executed, want %d each", next.Load(), len(seen), n)
	}
	for id, times := range seen {
		if id < 1 || id > n || times != 1 {
			t.Fatalf("id %d executed %d times", id, times)
		}
	}
}

func TestRunLoadWithoutNextIsAnError(t *testing.T) {
	if _, err := RunLoad(LoadOptions{Target: echoBackend(), Requests: 1}); err == nil {
		t.Fatal("RunLoad without Next returned no error")
	}
}

// A failing request is counted, its error kept, and Check reports it.
func TestRunLoadRecordsFirstFailure(t *testing.T) {
	boom := errors.New("no such table: ghosts")
	backend := &stubBackend{exec: func(req query.Request) query.Result {
		if req.Args[0].(int64)%2 == 1 {
			return query.Fail(boom)
		}
		return query.Ok(int64(1))
	}}
	var next atomic.Int64
	rep, err := RunLoad(LoadOptions{
		Target:   backend,
		Conns:    2,
		Requests: 20,
		Next: func(*rand.Rand) query.Request {
			return query.Req("q", "q", []any{next.Add(1)})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 10 || rep.Completed != 10 || !errors.Is(rep.Err, boom) {
		t.Fatalf("failed %d completed %d err %v, want 10/10/%v", rep.Failed, rep.Completed, rep.Err, boom)
	}
	if err := rep.Check(); !errors.Is(err, boom) {
		t.Fatalf("Check = %v, want it to carry %v", err, boom)
	}
}

// shortGrace shortens the hang detector's grace for one test.
func shortGrace(t *testing.T, d time.Duration) {
	old := hangGrace
	hangGrace = d
	t.Cleanup(func() { hangGrace = old })
}

// The grace bounds how long nothing is answered, not how long the run is: a
// count-bound and a duration-bound run several graces long both finish whole.
func TestRunLoadOutlastsTheGrace(t *testing.T) {
	shortGrace(t, 40*time.Millisecond)
	slow := &stubBackend{exec: func(query.Request) query.Result {
		time.Sleep(2 * time.Millisecond)
		return query.Ok(int64(1))
	}}
	for _, opts := range []LoadOptions{
		{Requests: 200}, // 2 workers × 100 × 2 ms = 5 graces
		{Duration: 200 * time.Millisecond},
	} {
		opts.Target, opts.Conns, opts.Next = slow, 2, nextEcho
		began := time.Now()
		rep, err := RunLoad(opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Check(); err != nil {
			t.Fatalf("%v (%+v)", err, rep)
		}
		if ran := time.Since(began); ran < 4*hangGrace || (opts.Requests > 0 && rep.Completed != opts.Requests) {
			t.Fatalf("ran %v, completed %d: %+v", ran, rep.Completed, rep)
		}
	}
}

// A request that never answers is reported hung one grace after the last
// answer, while the other worker finishes the run.
func TestRunLoadReportsAHungRequest(t *testing.T) {
	shortGrace(t, 40*time.Millisecond)
	release := make(chan struct{})
	defer close(release)
	entered := make(chan struct{})
	var first atomic.Bool
	backend := &stubBackend{exec: func(query.Request) query.Result {
		if first.CompareAndSwap(false, true) { // the first request sticks
			close(entered)
			<-release
		} else {
			<-entered
		}
		return query.Ok(int64(1))
	}}
	rep, err := RunLoad(LoadOptions{Target: backend, Conns: 2, Requests: 50, Next: nextEcho})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Hung != 1 || rep.Sent != 50 || rep.Completed != 49 {
		t.Fatalf("hung %d sent %d completed %d, want 1/50/49", rep.Hung, rep.Sent, rep.Completed)
	}
	if err := rep.Check(); err == nil || !strings.Contains(err.Error(), "hung") {
		t.Fatalf("Check = %v, want hung requests", err)
	}
}

func TestLoadReportCheck(t *testing.T) {
	healthy := LoadReport{
		Mode: "open", Conns: 64, Rate: 20000, Duration: 3,
		Sent: 1000, Completed: 600, Shed: 390, Deadlined: 10,
		ThroughputRPS: 200,
		P50Ms:         0.5, P99Ms: 2.0, P999Ms: 4.0, MeanMs: 0.6, MaxMs: 5.0,
	}
	if err := healthy.Check(); err != nil {
		t.Fatalf("healthy report rejected: %v", err)
	}

	// All-shed is still valid (no completions, so no percentile check).
	allShed := LoadReport{Mode: "open", Sent: 100, Shed: 100}
	if err := allShed.Check(); err != nil {
		t.Fatalf("all-shed report rejected: %v", err)
	}

	cases := []struct {
		name    string
		mutate  func(*LoadReport)
		wantErr string
	}{
		{"empty run", func(r *LoadReport) { r.Sent = 0 }, "no requests sent"},
		{"unaccounted outcomes", func(r *LoadReport) { r.Shed = 0 }, "do not account"},
		{"hung requests", func(r *LoadReport) { r.Shed -= 2; r.Hung = 2 }, "hung"},
		{"failed requests", func(r *LoadReport) { r.Shed--; r.Failed = 1; r.Err = errors.New("boom") }, "failed requests, first: boom"},
		{"zero p50 with completions", func(r *LoadReport) { r.P50Ms = 0 }, "p50"},
		{"inverted percentiles", func(r *LoadReport) { r.P99Ms = 9 }, "out of order"},
		{"retries over budget", func(r *LoadReport) { r.RetryBudget = 2; r.Retries = 129 }, "exceed the budget"},
	}
	for _, c := range cases {
		rep := healthy
		c.mutate(&rep)
		err := rep.Check()
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: got %v, want error containing %q", c.name, err, c.wantErr)
		}
	}
}
