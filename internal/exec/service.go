package exec

import (
	"sync/atomic"

	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/query"
)

// Front is where a Service's submissions enter: the pool itself, or a
// coalescer (see internal/batch) that groups them into batch calls and
// enqueues those on the pool.
type Front interface {
	// Submit takes one request and the pending handle its result will
	// complete. An error means the request was refused and the caller
	// drops the handle.
	Submit(req query.Request, h *Handle) error
	// Close hands everything still held to the pool; later Submits fail
	// with ErrClosed. Concurrent and repeated calls are safe, and each
	// returns only once the pool has it all.
	Close()
}

// Service adapts an Executor to the interpreter's QueryService. Blocking
// executeQuery calls run on the calling goroutine — exactly like the
// original JDBC programs — while submitQuery goes through the front end
// fixed at construction.
type Service struct {
	pool  *Executor
	front Front

	// tracer, when set by EnableTracing, mints one root span per Submit.
	tracer atomic.Pointer[obs.Tracer]
}

// NewService builds a query service over a pool of the given size. If
// workers is 0 submissions run synchronously, modelling an untransformed
// program's environment.
func NewService(workers int, run Runner) *Service {
	pool := NewExecutor(workers, run, nil)
	return NewServiceOn(pool, pool)
}

// NewServiceOn builds a query service that submits to front and owns both
// front and the pool behind it (batch.NewService puts its coalescer here).
func NewServiceOn(pool *Executor, front Front) *Service {
	return &Service{pool: pool, front: front}
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
	return s.pool.backend.run(query.Req(name, sql, args)).Pair()
}

// Submit implements interp.QueryService.
func (s *Service) Submit(name, sql string, args []interp.Value) (interp.Handle, error) {
	req := query.Req(name, sql, args)
	if tr := s.tracer.Load(); tr != nil {
		req.Span = tr.Start("request")
		req.Span.SetDetail(sql)
	}
	h := newHandle(req.Span)
	if err := s.front.Submit(req, h); err != nil {
		req.Span.End() // the request never got a handle; close its root here
		return nil, err
	}
	return h, nil
}

// Close shuts down the front end (flushing buffered submissions) and then
// the pool, waiting for pending requests, so pre-Close submissions still
// execute. Concurrent and repeated calls are safe.
func (s *Service) Close() {
	s.front.Close()
	s.pool.Close()
}

// Stats returns the total submitted and completed request counts.
func (s *Service) Stats() (submitted, completed int64) { return s.pool.Stats() }

// BatchStats reports how many batch calls were issued and their mean size.
func (s *Service) BatchStats() (batchesIssued int64, avgBatchSize float64) {
	return s.pool.BatchStats()
}
