package net

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	stdnet "net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/sqlmini"
)

// ErrClientClosed is returned for requests issued after Close, and for
// requests in flight when the caller closes the client under them. A
// connection that dies on its own fails requests with query.ErrConnLost
// instead — the retryable sentinel.
var ErrClientClosed = errors.New("net: client closed")

// errUnsent classifies connection losses where the request's frame never
// completely left this process: the server cannot have decoded — let alone
// executed — the request, so re-sending it on a fresh connection is safe
// even for a write. It wraps query.ErrConnLost, so callers testing the
// public sentinel see exactly what they saw before.
var errUnsent = fmt.Errorf("%w: request frame never completed", query.ErrConnLost)

// ClientOptions configure resilience and fault injection.
type ClientOptions struct {
	// Retry is the transport retry policy. The zero value disables
	// retries: every query.ErrConnLost surfaces to the caller.
	Retry RetryPolicy
	// Fault, when set, arms chaos injection on this client's connections:
	// SlowLink delays on writes, TornWrite cuts frames mid-write, and
	// ConnReset tears the connection down between requests. Reset and torn
	// frames are only injected at points the retry contract can absorb —
	// see the resilience contract in README.md.
	Fault *fault.Injector
}

// Client is one logical wire-protocol peer. It implements query.Executor,
// so the whole client runtime — exec.Service, the batch coalescer, the
// interpreter — runs against a remote server by handing it a Client where
// it previously took a server.Exec closure. Requests are pipelined: many
// goroutines may call Exec/ExecBatch concurrently, each response matched
// to its caller by request id. When the underlying connection dies the
// client reconnects (single-flight) and, under a RetryPolicy, replays the
// requests that are provably safe to replay: idempotent reads, and any
// request whose frame never finished sending. Writes whose outcome is
// unknown are never replayed — the caller gets query.ErrConnLost and the
// exactly-once decision.
type Client struct {
	addr string
	opts ClientOptions

	// prep routes statements read vs write for the retry contract; only
	// successful parses cache, and only provable INSERTs count as writes.
	prep sqlmini.PrepCache

	mu       sync.Mutex
	dialWait sync.Cond
	cc       *clientConn
	dialing  bool
	closed   bool

	retries    atomic.Int64 // re-sent requests (transport retries)
	reconnects atomic.Int64 // successful re-dials after a lost connection
	budgetUsed atomic.Int64

	rngMu sync.Mutex
	rng   *rand.Rand // backoff jitter
}

// call is what one Exec/ExecBatch holds for its duration, pooled: the encoded
// request frame (header included; encoded once, its id re-stamped per
// attempt), the slot its response arrives on, and the column names of the last
// row result decoded on it, which the next reply reuses while it repeats them
// (reader.columns). A call goes back to the pool only when nothing can still
// send on ch: every registration ends in a receive from ch, or in an abandon
// that found the entry still pending (see await).
type call struct {
	frame []byte
	ch    chan response // capacity 1: the read loop never blocks on a caller
	names []string
}

var callPool = sync.Pool{New: func() any { return &call{ch: make(chan response, 1)} }}

func putCall(cl *call) {
	cl.frame = retain(cl.frame)
	callPool.Put(cl)
}

// response is what a registration's slot receives, exactly once: a response
// frame's payload in a pooled buffer the receiver owns (and returns after
// decoding), or the connection's terminal error.
type response struct {
	msgType byte
	payload *buffer
	err     error
}

// pendingReq is one in-flight request slot on a connection.
type pendingReq struct {
	call  *call
	write bool
}

// clientConn is one live connection generation: requests register here,
// and when the connection dies the whole generation fails over.
type clientConn struct {
	conn stdnet.Conn
	inj  *fault.Injector

	w frameWriter // request frames, flush-combined

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]pendingReq
	writes  int   // write requests in flight (fault-injection gating)
	err     error // terminal connection error, set once

	readerDone chan struct{}
}

// Dial connects to a front door and performs the handshake, with no retry
// policy and no fault injection.
func Dial(addr string) (*Client, error) {
	return DialOptions(addr, ClientOptions{})
}

// DialOptions is Dial with a retry policy and/or chaos injection.
func DialOptions(addr string, opts ClientOptions) (*Client, error) {
	cc, err := dialConn(addr, opts.Fault)
	if err != nil {
		return nil, err
	}
	seed := time.Now().UnixNano()
	if opts.Fault != nil {
		seed = opts.Fault.Seed()
	}
	c := &Client{addr: addr, opts: opts, cc: cc, rng: rand.New(rand.NewSource(seed))}
	c.dialWait.L = &c.mu
	return c, nil
}

// dialConn establishes one connection generation: TCP dial, handshake,
// reader started.
func dialConn(addr string, inj *fault.Injector) (*clientConn, error) {
	raw, err := stdnet.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	conn := fault.WrapConn(raw, inj)
	if err := WriteFrame(conn, MsgHello, EncodeHello()); err != nil {
		conn.Close()
		return nil, err
	}
	// One buffered reader for the life of the connection: a response, or a
	// burst of pipelined responses, costs one read of the socket.
	br := bufio.NewReader(conn)
	msgType, payload, err := readFrame(br, nil)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("%w: handshake refused", ErrVersionMismatch)
	}
	if msgType != MsgHelloAck {
		conn.Close()
		return nil, fmt.Errorf("%w: unexpected frame %d", ErrBadFrame, msgType)
	}
	ver, err := DecodeHelloAck(payload)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if ver != Version {
		conn.Close()
		return nil, fmt.Errorf("%w: server speaks v%d, client v%d", ErrVersionMismatch, ver, Version)
	}
	cc := &clientConn{
		conn:       conn,
		inj:        inj,
		pending:    map[uint64]pendingReq{},
		readerDone: make(chan struct{}),
	}
	cc.w.init(conn)
	go cc.readLoop(br)
	return cc, nil
}

// conn returns the live connection, reconnecting (single-flight) when the
// current one is dead. Concurrent callers wait for the dial in flight —
// this is the reconnect that pipelined requests replay over.
func (c *Client) conn() (*clientConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.closed {
			return nil, ErrClientClosed
		}
		if c.cc != nil && !c.cc.dead() {
			return c.cc, nil
		}
		if c.dialing {
			c.dialWait.Wait()
			continue
		}
		c.dialing = true
		c.mu.Unlock()
		cc, err := dialConn(c.addr, c.opts.Fault)
		c.mu.Lock()
		c.dialing = false
		c.dialWait.Broadcast()
		if err != nil {
			// Nothing was sent on a connection that failed to come up, so
			// the failure is unsent-class: a retrying caller may try again.
			return nil, fmt.Errorf("%w: reconnect %s: %v", errUnsent, c.addr, err)
		}
		if c.closed {
			c.mu.Unlock()
			cc.shutdown(ErrClientClosed)
			c.mu.Lock()
			return nil, ErrClientClosed
		}
		c.cc = cc
		c.reconnects.Add(1)
		return cc, nil
	}
}

// Retries reports how many requests this client re-sent after losing a
// connection.
func (c *Client) Retries() int64 { return c.retries.Load() }

// Reconnects reports how many replacement connections this client dialed.
func (c *Client) Reconnects() int64 { return c.reconnects.Load() }

// readLoop dispatches response frames to their waiting requests. Each payload
// is read into a pooled buffer and handed, buffer and all, to the caller that
// decodes it; the loop takes a fresh one only then. On any read error it fails
// every pending request: a dead connection never leaves a caller blocked.
func (cc *clientConn) readLoop(br *bufio.Reader) {
	defer close(cc.readerDone)
	fb := getBuf()
	defer func() { putBuf(fb) }()
	for {
		msgType, payload, err := readFrame(br, fb.b)
		if err != nil {
			// User Close set cc.err first; an uninvited death is conn-lost.
			cc.die(query.ErrConnLost)
			return
		}
		fb.b = payload
		if msgType != MsgResult && msgType != MsgBatchResult {
			cc.die(fmt.Errorf("%w: unexpected frame %d", ErrBadFrame, msgType))
			return
		}
		if len(payload) < 8 {
			cc.die(ErrBadFrame)
			return
		}
		id := binary.BigEndian.Uint64(payload)
		cc.mu.Lock()
		pr, ok := cc.pending[id]
		if ok {
			delete(cc.pending, id)
			if pr.write {
				cc.writes--
			}
		}
		cc.mu.Unlock()
		if ok {
			pr.call.ch <- response{msgType: msgType, payload: fb}
			fb = getBuf()
		}
		// Unknown ids are responses to requests the caller abandoned at
		// their deadline; the frame is simply dropped.
	}
}

// die terminates the generation: the first error wins, and every pending
// request receives it. The socket closes first, which ends any flush in
// progress, so that a failed request can settle whether its frame was sent.
func (cc *clientConn) die(err error) {
	cc.conn.Close()
	cc.mu.Lock()
	if cc.err == nil {
		cc.err = err
	}
	err = cc.err
	pend := cc.pending
	cc.pending = map[uint64]pendingReq{}
	cc.writes = 0
	cc.mu.Unlock()
	for _, pr := range pend {
		pr.call.ch <- response{err: err}
	}
}

// dead reports whether the generation has a terminal error.
func (cc *clientConn) dead() bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.err != nil
}

// poison marks the generation dead (first error wins) and closes the
// socket, which makes the read loop fail every pending request.
func (cc *clientConn) poison(err error) {
	cc.mu.Lock()
	if cc.err == nil {
		cc.err = err
	}
	cc.mu.Unlock()
	cc.conn.Close()
}

// shutdown is poison plus waiting for the reader to drain (user Close).
func (cc *clientConn) shutdown(err error) {
	cc.poison(err)
	<-cc.readerDone
}

// register allocates a request id and makes cl the slot its response arrives
// on.
func (cc *clientConn) register(cl *call, isWrite bool) (uint64, error) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.err != nil {
		return 0, cc.err
	}
	cc.nextID++
	id := cc.nextID
	cc.pending[id] = pendingReq{call: cl, write: isWrite}
	if isWrite {
		cc.writes++
	}
	return id, nil
}

// abandon forgets a request the caller gave up on (deadline expiry); the
// server's eventual response frame is dropped by the read loop. It reports
// false when the entry is already gone: the read loop took it,
// and its send on the slot has happened or is about to.
func (cc *clientConn) abandon(id uint64) bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	pr, ok := cc.pending[id]
	if ok {
		delete(cc.pending, id)
		if pr.write {
			cc.writes--
		}
	}
	return ok
}

// injectReset simulates the peer (or a middlebox) resetting the
// connection, but only while no write is in flight: severing a sent write
// would leave its outcome unknown, and the injected chaos must stay inside
// what the retry contract can absorb. Reads severed here fail with
// query.ErrConnLost and replay on the next generation.
func (cc *clientConn) injectReset() bool {
	cc.mu.Lock()
	if cc.writes > 0 || cc.err != nil {
		cc.mu.Unlock()
		return false
	}
	cc.err = fmt.Errorf("%w: injected connection reset", query.ErrConnLost)
	cc.mu.Unlock()
	cc.conn.Close()
	return true
}

// canTear reports whether tearing the current frame is inside the retry
// contract: the torn request itself never decodes server-side (safe to
// re-send, write or read), but the kill takes every *other* in-flight
// write's response with it — so tearing is gated on no other write being
// in flight. The caller's own registration is excluded.
func (cc *clientConn) canTear(isWrite bool) bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	own := 0
	if isWrite {
		own = 1
	}
	return cc.writes <= own && cc.err == nil
}

// tear writes a deliberately incomplete frame and kills the connection — the
// mid-write failure mode (process death, RST mid-send) — when that is inside
// the retry contract (canTear). It is the one frame encoder's output cut at an
// offset drawn from the injector's seed, anywhere from inside the header to one
// byte short; the peer's reader blocks on the missing bytes until the close,
// then discards. canTear is asked with the writer idle: every earlier frame is
// on the wire and every later one still waits for the writer's lock, so
// cc.writes counts exactly the writes the kill would strand.
func (cc *clientConn) tear(frame []byte, isWrite bool) bool {
	nth := cc.inj.Fired(fault.TornWrite)
	cut := 1 + rand.New(rand.NewSource(cc.inj.Seed()+nth)).Intn(len(frame)-1)
	if !cc.w.cut(frame[:cut], func() bool { return cc.canTear(isWrite) }) {
		return false
	}
	cc.poison(fmt.Errorf("%w: injected torn frame", query.ErrConnLost))
	return true
}

// send queues one request frame on the connection and returns the stream
// offset it ends at. Any write error — including a torn frame part-way
// through — poisons the connection immediately: the stream is desynchronized
// and no later request may be written to it. The request itself then fails
// with the connection like every other pending one, and roundTrip settles from
// the offset whether its frame ever left.
func (cc *clientConn) send(frame []byte, isWrite bool) uint64 {
	if cc.inj.Should(fault.TornWrite) && cc.tear(frame, isWrite) {
		return math.MaxUint64 // beyond anything the connection will ever write
	}
	end, err := cc.w.send(frame)
	if err != nil {
		cc.poison(fmt.Errorf("%w: send failed: %v", query.ErrConnLost, err))
	}
	return end
}

// await blocks for the response, bounded by the request deadline. At the
// deadline the request is abandoned locally — the server may still execute
// it, but this caller gets exactly one answer: ErrDeadlineExceeded, unless the
// response won the race to the pending table, in which case its send is
// already on the way and it is the answer. Either way the slot is empty, and
// will stay so, when await returns.
func (cc *clientConn) await(id uint64, cl *call, dl query.Deadline) response {
	var timeout <-chan time.Time
	if t, ok := dl.Time(); ok {
		timer := time.NewTimer(time.Until(t))
		defer timer.Stop()
		timeout = timer.C
	}
	select {
	case resp := <-cl.ch:
		return resp
	case <-timeout:
		if cc.abandon(id) {
			return response{err: query.ErrDeadlineExceeded}
		}
		return <-cl.ch
	}
}

// isWrite reports whether sql is a provable INSERT. Anything else —
// reads, and malformed statements that fail identically wherever they
// run — is idempotent for retry purposes.
func (c *Client) isWrite(sql string) bool {
	st, err := c.prep.Prepare(sql)
	return err == nil && st.Insert
}

// retryable applies the contract: only connection losses retry, and a
// write only when its frame provably never completed.
func (c *Client) retryable(err error, isWrite bool) bool {
	if !errors.Is(err, query.ErrConnLost) {
		return false
	}
	return !isWrite || errors.Is(err, errUnsent)
}

// takeBudget consumes one unit of the lifetime retry budget.
func (c *Client) takeBudget() bool {
	b := c.opts.Retry.Budget
	if b <= 0 {
		return true
	}
	if c.budgetUsed.Add(1) > b {
		c.budgetUsed.Add(-1)
		return false
	}
	return true
}

// backoff sleeps before a retry, bounded by the request deadline. Reports
// false when the deadline expires first.
func (c *Client) backoff(attempt int, dl query.Deadline) bool {
	c.rngMu.Lock()
	d := c.opts.Retry.backoff(attempt, c.rng)
	c.rngMu.Unlock()
	if !dl.IsZero() {
		if r := dl.Remaining(); time.Duration(r) <= d {
			return false
		}
	}
	if d > 0 {
		time.Sleep(d)
	}
	return !dl.Expired()
}

// roundTrip performs one attempt for a request of either shape: acquire a
// connection (firing any scheduled connection reset first), register, stamp
// the request id into the frame, send, await, decode. The frame is encoded
// once per call, by the caller, and re-stamped per attempt. cl's slot is empty
// again on every return.
func (c *Client) roundTrip(cl *call, isWrite bool, sp *obs.Span, dl query.Deadline) (query.Reply, error) {
	cc, err := c.conn()
	if err != nil {
		return query.Reply{}, err
	}
	if c.opts.Fault.Should(fault.ConnReset) {
		cc.injectReset()
		if cc, err = c.conn(); err != nil {
			return query.Reply{}, err
		}
	}
	id, err := cc.register(cl, isWrite)
	if err != nil {
		return query.Reply{}, preSend(err)
	}
	binary.BigEndian.PutUint64(cl.frame[frameHeader:], id) // every request payload leads with its id
	rt := sp.Child("net.roundtrip")                        // nil-safe
	defer rt.End()
	end := cc.send(cl.frame, isWrite)
	resp := cc.await(id, cl, dl)
	if err := resp.err; err != nil {
		// A frame torn, cut short by a failed write, or still queued behind
		// one when the connection died never left whole: the server cannot
		// have executed the request, and the loss is unsent-class.
		if errors.Is(err, query.ErrConnLost) && !cc.w.sent(end) {
			err = fmt.Errorf("%w: %v", errUnsent, err)
		}
		return query.Reply{}, err
	}
	rep, err := decodeReply(resp.msgType, resp.payload.b, &cl.names)
	putBuf(resp.payload)
	return rep, err
}

// preSend reclassifies a registration failure: the generation was already
// dead, so this request never went anywhere — unsent-class, retry-safe.
func preSend(err error) error {
	if errors.Is(err, query.ErrConnLost) && !errors.Is(err, errUnsent) {
		return fmt.Errorf("%w: connection already down", errUnsent)
	}
	return err
}

// do runs one encoded request under the retry contract: attempts that die
// with the connection are re-sent on a fresh one when the contract allows
// (reads always; writes only unsent), within the attempt and lifetime
// budgets and the request deadline. The decision reads the reply's first
// error — a transport failure fails every binding of a batch with one error,
// so for a batch it is uniform and the batch is re-sent whole. The returned
// error is a failure of the call as a whole; statement errors come back
// inside the reply.
func (c *Client) do(cl *call, frame []byte, sql string, sp *obs.Span, dl query.Deadline) (query.Reply, error) {
	if dl.Expired() {
		return query.Reply{}, query.ErrDeadlineExceeded
	}
	var err error
	if cl.frame, err = finishFrame(frame, 0); err != nil {
		return query.Reply{}, err
	}
	isWrite := c.isWrite(sql)
	attempts := c.opts.Retry.attempts()
	for attempt := 0; ; attempt++ {
		rep, err := c.roundTrip(cl, isWrite, sp, dl)
		failure := err
		if failure == nil {
			failure = rep.FirstErr()
		}
		if failure == nil || attempt+1 >= attempts || !c.retryable(failure, isWrite) || !c.takeBudget() {
			return rep, err
		}
		if !c.backoff(attempt, dl) {
			return query.Reply{}, query.ErrDeadlineExceeded
		}
		c.retries.Add(1)
	}
}

// otherShape is what a call makes of a reply of the other shape: the reply's
// own error when it carries one — a server that cannot decode a request
// answers with a scalar error whatever the request was — else a protocol
// violation.
func otherShape(rep query.Reply, what string) error {
	if err := rep.FirstErr(); err != nil {
		return err
	}
	return fmt.Errorf("%w: %s", ErrBadFrame, what)
}

// Exec implements query.Executor over the wire. The request's Span stays
// client-side; Name, SQL, Args and Deadline cross.
func (c *Client) Exec(req query.Request) query.Result {
	cl := callPool.Get().(*call)
	defer putCall(cl)
	frame, err := appendExec(beginFrame(cl.frame[:0], MsgExec), 0, req)
	var rep query.Reply
	if err == nil {
		rep, err = c.do(cl, frame, req.SQL, req.Span, req.Deadline)
	}
	if err == nil && rep.Errs != nil {
		err = otherShape(rep, "batch response to Exec")
	}
	if err != nil {
		return query.Fail(err)
	}
	return rep.Result()
}

// ExecBatch implements the set-oriented half of query.Executor; a failure of
// the call as a whole fails every binding with the one error.
func (c *Client) ExecBatch(req query.BatchRequest) query.BatchResult {
	n := len(req.ArgSets)
	cl := callPool.Get().(*call)
	defer putCall(cl)
	frame, err := appendExecBatch(beginFrame(cl.frame[:0], MsgExecBatch), 0, req)
	var rep query.Reply
	if err == nil {
		rep, err = c.do(cl, frame, req.SQL, req.Span, req.Deadline)
	}
	switch {
	case err != nil:
	case rep.Errs == nil:
		err = otherShape(rep, "scalar response to ExecBatch")
	case len(rep.Errs) != n:
		err = fmt.Errorf("%w: batch result arity %d, want %d", ErrBadFrame, len(rep.Errs), n)
	default:
		return rep.BatchResult()
	}
	return query.FailAll(n, err)
}

// Close tears down the connection; in-flight requests fail with
// ErrClientClosed. Safe to call more than once.
func (c *Client) Close() {
	c.mu.Lock()
	c.closed = true
	cc := c.cc
	c.mu.Unlock()
	c.dialWait.Broadcast()
	if cc != nil {
		cc.shutdown(ErrClientClosed)
	}
}
