package exec

import (
	"sync"
	"sync/atomic"

	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/query"
)

// Batcher is a coalescing submission front-end (see internal/batch): Submit
// hands back a pending handle immediately and groups requests into batch
// jobs behind the scenes; Close flushes anything still buffered and must
// complete every outstanding handle. The request's span rides the pending
// handle (picking up a "batch.wait" child covering fill + linger time) and
// its deadline bounds how long the request may linger.
type Batcher interface {
	Submit(req query.Request) (*Handle, error)
	Close()
}

// Service adapts an Executor (plus a synchronous runner for blocking calls)
// to the interpreter's QueryService. Blocking executeQuery calls run on the
// calling goroutine — exactly like the original JDBC programs — while
// submitQuery goes through the pool, optionally via a coalescing Batcher
// that turns bursts of submissions into set-oriented batch calls.
type Service struct {
	exec *Executor
	sync Runner

	bmu     sync.Mutex // guards batcher: Submit may race SetBatcher/Close
	batcher Batcher

	// tracer, when set by EnableTracing, mints one root span per Submit.
	tracer atomic.Pointer[obs.Tracer]

	closeOnce sync.Once
}

// NewService builds a query service. If workers is 0 the service supports
// only blocking execution (submissions fall back to synchronous runs),
// modelling an untransformed program's environment.
func NewService(workers int, run Runner) *Service {
	return NewBatchService(workers, run, nil)
}

// NewBatchService is NewService with a set-oriented batch path: batch jobs
// submitted through the executor (via a Batcher front-end, see SetBatcher)
// execute through runBatch in one call.
func NewBatchService(workers int, run Runner, runBatch BatchRunner) *Service {
	s := &Service{sync: run}
	if workers > 0 {
		s.exec = NewBatchExecutor(workers, run, runBatch)
	}
	return s
}

// Executor exposes the underlying pool (nil in degraded mode) so batching
// front-ends can enqueue batch jobs on it.
func (s *Service) Executor() *Executor { return s.exec }

// SetBatcher installs a coalescing front-end: subsequent Submit calls route
// through it. In degraded mode (no pool) the toggle is a no-op — submissions
// keep falling back to synchronous execution. Passing nil turns batching
// off again (without closing the previous batcher).
func (s *Service) SetBatcher(b Batcher) {
	if s.exec == nil {
		return
	}
	s.bmu.Lock()
	s.batcher = b
	s.bmu.Unlock()
}

// EnableTracing turns on per-request trace spans: every Submit opens a
// "request" root span that ends when the request completes, with queue
// wait, batch coalescing, and backend execution hanging off it. The span
// rides the request itself, so the configured runners carry it into the
// backend with no separate span-threading variants. Call before the first
// Submit you want traced.
func (s *Service) EnableTracing(tr *obs.Tracer) {
	if tr == nil {
		return
	}
	s.tracer.Store(tr)
}

// Exec implements interp.QueryService.
func (s *Service) Exec(name, sql string, args []interp.Value) (interp.Value, error) {
	return s.sync(query.Req(name, sql, args)).Pair()
}

// Submit implements interp.QueryService.
func (s *Service) Submit(name, sql string, args []interp.Value) (interp.Handle, error) {
	tr := s.tracer.Load()
	req := query.Req(name, sql, args)
	if s.exec == nil {
		// Degraded mode: run synchronously and wrap the result, so programs
		// transformed for asynchrony still run correctly with no pool.
		sp := tr.Start("request") // nil-safe: nil tracer mints nil span
		res := s.sync(req.WithSpan(sp))
		sp.End()
		return newDoneHandle(res.Value, res.Err), nil
	}
	if tr != nil {
		sp := tr.Start("request")
		sp.SetDetail(sql)
		req = req.WithSpan(sp)
	}
	s.bmu.Lock()
	b := s.batcher
	s.bmu.Unlock()
	var h *Handle
	var err error
	if b != nil {
		h, err = b.Submit(req)
	} else {
		h, err = s.exec.Submit(req)
	}
	if err != nil {
		req.Span.End() // the request never got a handle; close its root here
		return nil, err
	}
	return h, nil
}

// Close shuts down the batcher (flushing buffered submissions) and then the
// pool (if any), waiting for pending requests. Concurrent and repeated
// calls are safe: the batcher always finishes flushing before the executor
// closes, so pre-Close submissions still execute.
func (s *Service) Close() {
	s.closeOnce.Do(func() {
		s.bmu.Lock()
		b := s.batcher
		s.batcher = nil
		s.bmu.Unlock()
		if b != nil {
			b.Close()
		}
		if s.exec != nil {
			s.exec.Close()
		}
	})
}

// Stats proxies Executor.Stats; zero values when no pool exists.
func (s *Service) Stats() (submitted, completed int64) {
	if s.exec == nil {
		return 0, 0
	}
	return s.exec.Stats()
}

// BatchStats proxies Executor.BatchStats; zero values when no pool exists.
func (s *Service) BatchStats() (batchesIssued int64, avgBatchSize float64) {
	if s.exec == nil {
		return 0, 0
	}
	return s.exec.BatchStats()
}
