package net

import (
	"bufio"
	"errors"
	"fmt"
	stdnet "net"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/query"
)

// ServerOptions configure the front door.
type ServerOptions struct {
	// MaxInflight bounds concurrently executing request units (batch
	// members count individually); beyond it requests are shed with
	// query.ErrOverloaded. 0 = unlimited.
	MaxInflight int
	// Metrics, when set, receives net.* counters (requests, batches, sheds,
	// rejected-deadline) and the admission source.
	Metrics *obs.Registry
}

// Server accepts wire-protocol connections and executes their requests
// against a query.Executor — any layer of the stack, from a bare
// server.Server to a sharded replicated group. Requests on one connection
// execute concurrently (pipelining), and responses carry the request id they
// answer, so slow requests never head-of-line-block fast ones.
type Server struct {
	backend   query.Executor
	admission *Admission
	opts      ServerOptions

	ln stdnet.Listener

	mu     sync.Mutex
	conns  map[stdnet.Conn]struct{}
	closed bool

	wg sync.WaitGroup

	requests *obs.Counter // admitted Exec requests
	batches  *obs.Counter // admitted ExecBatch requests
	expired  *obs.Counter // rejected before execution: deadline already past
}

// NewServer builds a front door over backend.
func NewServer(backend query.Executor, opts ServerOptions) *Server {
	s := &Server{
		backend:   backend,
		admission: NewAdmission(opts.MaxInflight),
		opts:      opts,
		conns:     map[stdnet.Conn]struct{}{},
	}
	reg := opts.Metrics
	if reg == nil {
		// Counters are unconditional (the handlers bump them with no nil
		// checks); without a caller registry they land in a private one.
		reg = obs.NewRegistry()
	} else {
		s.admission.RegisterMetrics(reg, "net.")
	}
	s.requests = reg.Counter("net.requests")
	s.batches = reg.Counter("net.batches")
	s.expired = reg.Counter("net.deadline.rejected")
	return s
}

// Admission exposes the budget for tests and metrics polling.
func (s *Server) Admission() *Admission { return s.admission }

// Listen binds addr (e.g. "127.0.0.1:0") and starts serving in the
// background. The bound address is available via Addr.
func (s *Server) Listen(addr string) error {
	ln, err := stdnet.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("net: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return nil
}

// Addr returns the listener's address ("" before Listen).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

func (s *Server) acceptLoop(ln stdnet.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// Close stops accepting, closes every connection and waits for in-flight
// handlers. Requests already admitted finish executing; their responses
// may be lost with the connection, which is exactly the crash the
// client-side deadline exists for.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	ln := s.ln
	conns := make([]stdnet.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}

// idleWorkers is how many of a connection's workers stay parked between
// requests. It covers the pipelining depth the client runtime produces by
// default (a pool of four) without a goroutine being started per request;
// whatever a deeper burst adds exits as the burst drains.
const idleWorkers = 4

// srvConn is the per-connection state: the flush-combining reply writer and
// the worker set that executes the connection's requests.
type srvConn struct {
	c stdnet.Conn
	w frameWriter

	// jobs is unbuffered: the read loop's send succeeds only into a worker
	// that is already waiting, so a request never queues behind a busy one.
	jobs    chan job
	idle    atomic.Int32 // workers waiting on jobs, or about to
	workers sync.WaitGroup
}

// job is one admitted request on its way to a worker.
type job struct {
	id   uint64
	call query.Call
}

func (s *Server) serveConn(c stdnet.Conn) {
	defer s.wg.Done()
	defer func() {
		c.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()

	// One buffered reader for the life of the connection: a frame, or a burst
	// of pipelined frames, costs one read of the socket.
	br := bufio.NewReader(c)

	// Handshake: hello in, helloAck out. A peer speaking another version
	// (or not this protocol at all) is cut off before any request decodes.
	msgType, payload, err := readFrame(br, nil)
	if err != nil || msgType != MsgHello {
		return
	}
	ver, err := DecodeHello(payload)
	if err != nil || ver != Version {
		return
	}
	sc := &srvConn{c: c, jobs: make(chan job)}
	sc.w.init(c)
	if WriteFrame(c, MsgHelloAck, EncodeHelloAck()) != nil {
		return
	}

	// Request loop: decode, admit, hand to a worker. The loop goroutine owns
	// reads; workers own their response (queued on sc.w); the deferred conn
	// close unblocks the read on server shutdown, and closing jobs releases
	// the parked workers.
	defer sc.workers.Wait()
	defer close(sc.jobs)
	var last stmtNames
	for {
		// The payload storage is reused frame to frame: every decoder copies
		// what it keeps.
		msgType, payload, err = readFrame(br, retain(payload))
		if err != nil {
			return // peer closed (io.EOF) or connection torn down
		}
		if msgType != MsgExec && msgType != MsgExecBatch {
			return // protocol violation: unknown frame kills the connection
		}
		id, call, err := decodeCall(msgType, payload, &last)
		if err != nil {
			// How many bindings the frame meant to carry is unknowable, so the
			// answer is a scalar error; the client surfaces it on either call.
			s.send(sc, id, false, &query.Reply{Err: fmt.Errorf("net: bad request: %w", err)})
			continue
		}
		// A request past its deadline or beyond the budget is answered on the
		// read loop — rejection must not cost a worker — and never reaches the
		// backend.
		if err := s.admit(call); err != nil {
			var rep query.Reply
			call.Fail(err, &rep)
			s.send(sc, id, call.Batch(), &rep)
			continue
		}
		s.dispatch(sc, job{id, call})
	}
}

// dispatch hands j to a parked worker, or starts one when none is waiting: the
// set grows with the number of requests in flight, so a slow request never
// holds up the one behind it. (A worker between finishing and parking is
// missed and a spare one started; it exits again below.)
func (s *Server) dispatch(sc *srvConn, j job) {
	select {
	case sc.jobs <- j:
	default:
		sc.workers.Add(1)
		go s.work(sc, j)
	}
}

// work runs one worker: j, then whatever the read loop hands it while it is
// parked. It parks only while fewer than idleWorkers others do — which is how
// the set shrinks when a burst ends — and exits when the connection closes.
// The stack is sized once per worker, not per request, and so are the call and
// the reply: the backend takes them by pointer through an interface, which
// puts them on the heap.
func (s *Server) work(sc *srvConn, j job) {
	defer sc.workers.Done()
	query.GrowStack()
	var rep query.Reply
	for ok := true; ok; {
		s.serve(sc, j.id, &j.call, &rep)
		// A parked worker must not pin its last request's bindings or results.
		j, rep = job{}, query.Reply{}
		if sc.idle.Add(1) > idleWorkers {
			sc.idle.Add(-1)
			return
		}
		j, ok = <-sc.jobs
		sc.idle.Add(-1)
	}
}

// admit applies the deadline-and-budget gate, counting what it lets through.
func (s *Server) admit(c query.Call) error {
	switch {
	case c.Deadline.Expired():
		s.expired.Add(1)
		return query.ErrDeadlineExceeded
	case !s.admission.TryAcquire(c.Units()):
		return query.ErrOverloaded
	case c.Batch():
		s.batches.Add(1)
	default:
		s.requests.Add(1)
	}
	return nil
}

// serve executes one admitted call against the backend and answers it from
// rep (zero on entry).
func (s *Server) serve(sc *srvConn, id uint64, c *query.Call, rep *query.Reply) {
	c.On(s.backend, rep)
	// Release before the response write: the units' work is done, and a
	// client that fires its next request the instant the response lands must
	// find the slot free (a closed loop with conns == budget must never shed).
	s.admission.Release(c.Units())
	s.send(sc, id, c.Batch(), rep)
}

// send encodes the response frame for a call of the given shape into a pooled
// buffer and queues it on the connection's writer, which copies it: the buffer
// goes straight back to the pool.
func (s *Server) send(sc *srvConn, id uint64, batch bool, rep *query.Reply) {
	fb := getBuf()
	defer putBuf(fb)
	frame, err := appendReply(fb.b, id, batch, rep)
	if err != nil {
		// The value could not cross the wire; the client still gets an
		// answer (an error) rather than a hung request id.
		fail := query.FailAll(len(rep.Errs), err)
		rep = &query.Reply{Err: err, Values: fail.Values, Errs: fail.Errs}
		if frame, err = appendReply(fb.b, id, batch, rep); err != nil {
			return
		}
	}
	fb.b = frame
	if _, err := sc.w.send(frame); err != nil {
		sc.c.Close() // writer failed: kill the conn so the read loop exits
	}
}
