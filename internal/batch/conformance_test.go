package batch

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/query"
)

// serviceMode is one way to build a query service. coalesces is what the
// arguments must decide: whether submissions reach the backend as batch
// calls of up to maxBatch, or one by one.
type serviceMode struct {
	name      string
	workers   int
	build     func(workers int, run exec.Runner, runBatch exec.BatchRunner) *exec.Service
	coalesces bool
	maxBatch  int
}

// serviceModes lists every way to build a service.
func serviceModes() []serviceMode {
	with := func(maxBatch int) func(int, exec.Runner, exec.BatchRunner) *exec.Service {
		return func(workers int, run exec.Runner, runBatch exec.BatchRunner) *exec.Service {
			return NewService(workers, run, runBatch, Options{MaxBatch: maxBatch})
		}
	}
	return []serviceMode{
		{name: "synchronous", workers: 0, build: with(16)},
		{name: "plain pool", workers: 3,
			build: func(workers int, run exec.Runner, _ exec.BatchRunner) *exec.Service {
				return exec.NewService(workers, run)
			}},
		{name: "MaxBatch 1", workers: 3, build: with(1)},
		{name: "negative MaxBatch", workers: 3, build: with(-3)},
		{name: "nil BatchRunner", workers: 3,
			build: func(workers int, run exec.Runner, _ exec.BatchRunner) *exec.Service {
				return with(16)(workers, run, nil)
			}},
		{name: "MaxBatch 2", workers: 3, build: with(2), coalesces: true, maxBatch: 2},
		{name: "MaxBatch 16", workers: 3, build: with(16), coalesces: true, maxBatch: 16},
		{name: "default MaxBatch", workers: 3, build: with(0), coalesces: true, maxBatch: DefaultMaxBatch},
	}
}

const tooFew = "exec: batch runner returned too few results"

var errDown = errors.New("backend down")

// conformanceBackend answers four statements. "a" and "b" compute from the
// binding and fail the bindings divisible by 7; "down" fails whatever it is
// handed, whole batches included; "short" answers like "a" but its batch
// form leaves the last binding out of the reply. It counts how it was
// called.
type conformanceBackend struct {
	runs, batchCalls, batched atomic.Int64
}

func (b *conformanceBackend) answer(name string, args []any) (any, error) {
	n := args[0].(int64)
	switch {
	case name == "down":
		return nil, errDown
	case n%7 == 0:
		return nil, fmt.Errorf("%s: bad binding %d", name, n)
	}
	return fmt.Sprintf("%s=%d", name, n*3), nil
}

func (b *conformanceBackend) run(req query.Request) query.Result {
	b.runs.Add(1)
	v, err := b.answer(req.Name, req.Args)
	return query.Result{Value: v, Err: err}
}

func (b *conformanceBackend) runBatch(req query.BatchRequest) query.BatchResult {
	b.batchCalls.Add(1)
	b.batched.Add(int64(len(req.ArgSets)))
	n := len(req.ArgSets)
	if req.Name == "short" {
		n--
	}
	res := query.BatchResult{Values: make([]any, n), Errs: make([]error, n)}
	for i := range res.Values {
		res.Values[i], res.Errs[i] = b.answer(req.Name, req.ArgSets[i])
	}
	return res
}

func renderOutcome(v any, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return interp.Format(v)
}

// waitGoroutines fails the test unless the goroutine count returns to what
// it was before the services were built.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	after := runtime.NumGoroutine()
	for i := 0; i < 200 && after > before; i++ {
		time.Sleep(5 * time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before {
		t.Errorf("goroutines grew from %d to %d", before, after)
	}
}

// TestServiceConformance drives one submission stream through every way to
// build a service: every handle must carry, value for value and error text
// for error text, what the backend's single-request form answers for that
// binding — except the one binding per "short" batch that the batch runner
// left out, which must fail and not hang — and after Close every submission
// is counted, completed, and no goroutine is left. The backend answers no
// batch before Close, so per statement the first binding goes alone, the
// rest leave in full batches of MaxBatch, and the remainder leaves at Close.
func TestServiceConformance(t *testing.T) {
	type submission struct {
		name string
		n    int64
	}
	// Four statements interleaved, so every coalescing mode holds several
	// open groups at once and closes some full and some at Close.
	var stream []submission
	for i := int64(1); i <= 60; i++ {
		stream = append(stream, submission{[]string{"a", "b", "short"}[i%3], i})
		if i%5 == 0 {
			stream = append(stream, submission{"down", i})
		}
	}
	perStatement := map[string]int{}
	for _, s := range stream {
		perStatement[s.name]++
	}
	var reference conformanceBackend

	for _, mode := range serviceModes() {
		t.Run(mode.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			var be conformanceBackend
			runBatch, release := held(be.runBatch)
			svc := mode.build(mode.workers, be.run, runBatch)

			hs := make([]interp.Handle, len(stream))
			for i, s := range stream {
				h, err := svc.Submit(s.name, "select "+s.name, []any{s.n})
				if err != nil {
					t.Fatalf("submission %d: %v", i, err)
				}
				hs[i] = h
			}
			closeHeld(t, svc, int64(len(stream)), release) // sends the partial batches and drains the pool

			seen := map[string]int{}
			wantBatches := 0
			for i, s := range stream {
				want := renderOutcome(reference.answer(s.name, []any{s.n}))
				if mode.coalesces {
					seen[s.name]++
					k := seen[s.name] - 1 // bindings of s.name behind its first
					last := k%mode.maxBatch == 0 || seen[s.name] == perStatement[s.name]
					if last {
						wantBatches++
					}
					if last && s.name == "short" {
						want = "error: " + tooFew
					}
				}
				if !hs[i].(*exec.Handle).Done() {
					t.Fatalf("submission %d (%s %d) still pending after Close", i, s.name, s.n)
				}
				if got := renderOutcome(hs[i].Fetch()); got != want {
					t.Errorf("submission %d (%s %d): got %q, want %q", i, s.name, s.n, got, want)
				}
			}

			n := int64(len(stream))
			if sub, comp := svc.Stats(); sub != n || comp != n {
				t.Errorf("Stats after Close = %d submitted / %d completed, want %d / %d", sub, comp, n, n)
			}
			batches, avg := svc.BatchStats()
			if mode.coalesces {
				if be.runs.Load() != 0 || be.batched.Load() != n || be.batchCalls.Load() != int64(wantBatches) {
					t.Errorf("backend saw %d single calls and %d bindings in %d batch calls, want 0 and %d in %d",
						be.runs.Load(), be.batched.Load(), be.batchCalls.Load(), n, wantBatches)
				}
				if batches != int64(wantBatches) || avg != float64(n)/float64(wantBatches) {
					t.Errorf("BatchStats = %d batches of %.3f, want %d of %.3f",
						batches, avg, wantBatches, float64(n)/float64(wantBatches))
				}
			} else {
				if be.runs.Load() != n || be.batchCalls.Load() != 0 {
					t.Errorf("backend saw %d single calls and %d batch calls, want %d and 0",
						be.runs.Load(), be.batchCalls.Load(), n)
				}
				if batches != 0 || avg != 0 {
					t.Errorf("BatchStats = %d batches of %.3f without a coalescer", batches, avg)
				}
			}
			if _, err := svc.Submit("a", "select a", []any{int64(1)}); !errors.Is(err, exec.ErrClosed) {
				t.Errorf("Submit after Close: %v, want ErrClosed", err)
			}
			waitGoroutines(t, before)
		})
	}
}

// TestServiceConformanceCloseRace: submissions racing Close are either
// refused with ErrClosed or carried out in full, in every mode — a handle
// that was handed out completes with its real answer, and the counters agree
// with the number accepted.
func TestServiceConformanceCloseRace(t *testing.T) {
	for _, mode := range serviceModes() {
		t.Run(mode.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			for round := 0; round < 20; round++ {
				var be conformanceBackend
				svc := mode.build(mode.workers, be.run, be.runBatch)
				var accepted atomic.Int64
				var wg sync.WaitGroup
				for g := int64(0); g < 4; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := int64(1); i <= 50; i++ {
							n := g*1000 + i
							h, err := svc.Submit("a", "select a", []any{n})
							if err != nil {
								if !errors.Is(err, exec.ErrClosed) {
									t.Errorf("submit: %v", err)
								}
								return
							}
							accepted.Add(1)
							want := renderOutcome(be.answer("a", []any{n}))
							// Fetch after Close, so submissions race Close
							// rather than wait for answers.
							defer func() {
								if got := renderOutcome(h.Fetch()); got != want {
									t.Errorf("binding %d: got %q, want %q", n, got, want)
								}
							}()
						}
					}()
				}
				if round%2 == 0 {
					runtime.Gosched()
				}
				svc.Close()
				wg.Wait()
				svc.Close() // a repeated Close is safe
				if sub, comp := svc.Stats(); sub != accepted.Load() || comp != accepted.Load() {
					t.Fatalf("round %d: Stats = %d / %d, accepted %d", round, sub, comp, accepted.Load())
				}
			}
			waitGoroutines(t, before)
		})
	}
}

// TestBackendReceivesStatementBindingsAndLeaderSpan pins what a Service
// hands its backend in each mode: the statement, the bindings in submission
// order, the span of the request that leads the call when tracing is on, and
// nothing else — no deadline is invented on the way. One worker keeps arrival order equal to dispatch order.
func TestBackendReceivesStatementBindingsAndLeaderSpan(t *testing.T) {
	type arrival struct {
		name     string
		bindings []int64
	}
	for _, traced := range []bool{false, true} {
		for _, mode := range serviceModes() {
			t.Run(fmt.Sprintf("%s/traced=%v", mode.name, traced), func(t *testing.T) {
				var arrivals []arrival // appended by the one worker (or the submitter, when synchronous)
				check := func(r query.Request, name string, bindings []int64) {
					if r.SQL != "select "+name || (r.Span != nil) != traced || !r.Deadline.IsZero() {
						t.Errorf("%s %v arrived as %+v", name, bindings, r)
					}
					if r.Span != nil && r.Span.Name() != "request" {
						t.Errorf("%s %v arrived under span %q, want the request root", name, bindings, r.Span.Name())
					}
					r.Span.Child("backend").End()
					arrivals = append(arrivals, arrival{name, bindings})
				}
				run := func(req query.Request) query.Result {
					check(req, req.Name, []int64{req.Args[0].(int64)})
					return query.Ok(nil)
				}
				runBatch := func(req query.BatchRequest) query.BatchResult {
					var bindings []int64
					for _, args := range req.ArgSets {
						bindings = append(bindings, args[0].(int64))
					}
					check(query.Request{SQL: req.SQL, Span: req.Span, Deadline: req.Deadline}, req.Name, bindings)
					return query.BatchResult{Values: make([]any, len(bindings)), Errs: make([]error, len(bindings))}
				}
				workers := min(mode.workers, 1)
				svc := mode.build(workers, run, runBatch)
				var roots []*obs.Span // in completion order: binding order within a call, calls in arrival order
				if traced {
					tr := obs.NewTracer(obs.NewRegistry())
					tr.SetCollector(func(root *obs.Span) { roots = append(roots, root) })
					svc.EnableTracing(tr)
				}
				submitted := map[string][]int64{}
				for i := int64(0); i < 40; i++ {
					name := []string{"a", "b"}[i%2]
					if _, err := svc.Submit(name, "select "+name, []any{i}); err != nil {
						t.Fatal(err)
					}
					submitted[name] = append(submitted[name], i)
				}
				svc.Close()

				received := map[string][]int64{}
				for _, a := range arrivals {
					received[a.name] = append(received[a.name], a.bindings...)
				}
				if fmt.Sprint(received) != fmt.Sprint(submitted) {
					t.Errorf("backend received %v, submitted %v", received, submitted)
				}
				if !traced {
					return
				}
				// The first request of every call leads it: the queue wait (if
				// there is a queue) and the backend's subtree hang off its root;
				// the others record the shared execution as a leaf.
				if len(roots) != 40 {
					t.Fatalf("%d request roots ended, want 40", len(roots))
				}
				for _, a := range arrivals {
					for k := range a.bindings {
						names := map[string]bool{}
						for _, c := range roots[k].Children() {
							names[c.Name()] = true
						}
						leads := names["exec.queue"] == (workers > 0) && names["backend"] && !names["batch.exec"]
						follows := names["batch.exec"] && !names["exec.queue"] && !names["backend"]
						if (k == 0 && !leads) || (k > 0 && !follows) || names["batch.wait"] != mode.coalesces {
							t.Errorf("%s %d (position %d of its call) has children %v", a.name, a.bindings[k], k, names)
						}
					}
					roots = roots[len(a.bindings):]
				}
			})
		}
	}
}
