package net

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	stdnet "net"
	"sync"

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
// answer, so slow requests never head-of-line-block fast ones. The one
// exception is a set: batch frames of one statement, with no deadline, that
// are in the read buffer together run as one call, and their replies leave in
// one write. A member then waits for its set-mates' bindings, of its own
// statement, as if one batch had carried them all. A single request never
// joins a set, so it never waits on another request's execution.
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
	joined   *obs.Counter // admitted ExecBatch requests that rode another's call
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
	s.joined = reg.Counter("net.batches.joined")
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
// default (a pool of four) without a goroutine being started per request —
// the pool's batches of one statement that arrive together are one set and
// take one worker; whatever a deeper burst adds exits as the burst drains.
const idleWorkers = 4

// srvConn is the per-connection state: the flush-combining reply writer and
// the worker set that executes the connection's requests.
type srvConn struct {
	c       stdnet.Conn
	w       frameWriter
	workers *query.Workers[job]
}

// job is one admitted request on its way to a worker, or a set of them: call
// then holds every member's bindings in frame order.
type job struct {
	id   uint64
	call query.Call
	set  []member // nil for a set of one
}

// member is a request of a set and how many of its bindings are its own.
type member struct {
	id uint64
	n  int
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
	sc := &srvConn{c: c}
	sc.workers = query.NewWorkers(idleWorkers, func(j job) { s.work(sc, j) })
	sc.w.init(c)
	if WriteFrame(c, MsgHelloAck, EncodeHelloAck()) != nil {
		return
	}

	// Request loop: decode, admit, hand to a worker. The loop goroutine owns
	// reads; workers own their response (queued on sc.w); the deferred conn
	// close unblocks the read on server shutdown, and closing the worker set
	// releases the parked workers.
	defer sc.workers.Close()
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
		mates, frames, sets := company(br, msgType, payload)
		var j job
		if !s.take(sc, msgType, payload, &last, sets, &j) {
			continue
		}
		if frames > 0 {
			j.set = append(make([]member, 0, 1+frames), member{j.id, len(j.call.ArgSets)})
			s.gather(sc, &j, mates, &last)
			br.Discard(len(mates))
		}
		sc.workers.Go(&j)
	}
}

// company returns the frames already wholly in br's buffer that join the
// request in payload — batches of its statement with no deadline, like it
// (batchKey) — their count, and a list with room for the set's bindings.
// Nothing waits for a frame, and a single request has none: it would wait on
// another's execution.
func company(br *bufio.Reader, msgType byte, payload []byte) (mates []byte, frames int, sets [][]any) {
	key, bindings, ok := batchKey(msgType, payload)
	if !ok {
		return nil, 0, nil
	}
	buf, _ := br.Peek(br.Buffered())
	end := 0
	for len(buf)-end >= frameHeader {
		size := 4 + int(binary.BigEndian.Uint32(buf[end:]))
		if size < frameHeader || size > len(buf)-end {
			break
		}
		k, n, ok := batchKey(buf[end+4], buf[end+frameHeader:end+size])
		if !ok || !bytes.Equal(k, key) {
			break
		}
		end, frames, bindings = end+size, frames+1, bindings+n
	}
	return buf[:end], frames, make([][]any, 0, bindings)
}

// gather decodes the frames in mates onto j's bindings, admitting each on its
// own: a member that does not decode or is refused is answered here and left
// out of the set.
func (s *Server) gather(sc *srvConn, j *job, mates []byte, last *stmtNames) {
	for len(mates) > 0 {
		size := 4 + int(binary.BigEndian.Uint32(mates))
		var m job
		if s.take(sc, MsgExecBatch, mates[frameHeader:size], last, j.call.ArgSets, &m) {
			j.call.ArgSets = append(j.call.ArgSets, m.call.ArgSets...) // in place: m's bindings lie there already
			j.set = append(j.set, member{m.id, len(m.call.ArgSets)})
			s.joined.Add(1)
		}
		mates = mates[size:]
	}
}

// take decodes one request frame into the zero job j, its bindings behind
// sets', and admits it. A request that does not decode, is past its deadline
// or is beyond the budget is answered on the read loop — rejection must not
// cost a worker — and never reaches the backend; take then reports false.
func (s *Server) take(sc *srvConn, msgType byte, payload []byte, last *stmtNames, sets [][]any, j *job) bool {
	var err error
	if j.id, err = decodeCall(msgType, payload, last, sets, &j.call); err != nil {
		// How many bindings the frame meant to carry is unknowable, so the
		// answer is a scalar error; the client surfaces it on either call.
		s.send(sc, &job{id: j.id}, &query.Reply{Err: fmt.Errorf("net: bad request: %w", err)})
		return false
	}
	if err := s.admit(&j.call); err != nil {
		var rep query.Reply
		j.call.Fail(err, &rep)
		s.send(sc, j, &rep)
		return false
	}
	return true
}

// work runs one worker of the connection's set: j, then each request Park
// gives it. The call and the reply live as long as the worker, not a request:
// the backend takes them by pointer through an interface (the heap).
func (s *Server) work(sc *srvConn, j job) {
	var rep query.Reply
	for ok := true; ok; ok = sc.workers.Park(&j) {
		s.serve(sc, &j, &rep)
		rep = query.Reply{} // a parked worker must not pin its last results
	}
}

// admit applies the deadline-and-budget gate, counting what it lets through.
func (s *Server) admit(c *query.Call) error {
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

// serve executes one admitted call — a set's, once for all its members —
// against the backend and answers it from rep (zero on entry).
func (s *Server) serve(sc *srvConn, j *job, rep *query.Reply) {
	j.call.On(s.backend, rep)
	// Release before the response write: the units' work is done, and a
	// client that fires its next request the instant the response lands must
	// find the slot free (a closed loop with conns == budget must never shed).
	s.admission.Release(j.call.Units())
	s.send(sc, j, rep)
}

// send encodes the response frames for j — one a member of its set, with the
// member's slots of rep — into a pooled buffer and queues them on the
// connection's writer at once; the writer copies them, so the buffer goes
// straight back to the pool.
func (s *Server) send(sc *srvConn, j *job, rep *query.Reply) {
	fb := getBuf()
	defer putBuf(fb)
	if n := j.call.Units(); j.set != nil && (len(rep.Values) != n || len(rep.Errs) != n) {
		j.call.Fail(fmt.Errorf("net: batch result shape: %d values, %d errs for %d bindings", len(rep.Values), len(rep.Errs), n), rep)
	}
	b, off := fb.b[:0], 0
	if j.set == nil {
		b = answer(b, j.id, j.call.Batch(), rep)
	}
	for _, m := range j.set {
		b = answer(b, m.id, true, &query.Reply{Values: rep.Values[off : off+m.n], Errs: rep.Errs[off : off+m.n]})
		off += m.n
	}
	fb.b = b
	if _, err := sc.w.send(b); err != nil {
		sc.c.Close() // writer failed: kill the conn so the read loop exits
	}
}

// answer appends to b the frame answering request id with rep. A value that
// cannot cross the wire is answered with the error instead, so the client
// still gets an answer rather than a hung request id.
func answer(b []byte, id uint64, batch bool, rep *query.Reply) []byte {
	frame, err := appendReply(b, id, batch, rep)
	if err != nil {
		fail := query.FailAll(len(rep.Errs), err)
		if frame, err = appendReply(b, id, batch, &query.Reply{Err: err, Values: fail.Values, Errs: fail.Errs}); err != nil {
			return b
		}
	}
	return frame
}
