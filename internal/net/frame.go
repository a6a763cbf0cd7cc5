package net

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// frameHeader is the [u32 length][type byte] that leads every frame.
const frameHeader = 5

// readAhead caps how much payload storage a length prefix can reserve before
// any of the bytes it promises have arrived, so a corrupt prefix costs this
// much, not MaxFrame.
const readAhead = 1 << 20

// maxRetained is the largest buffer a pool or a connection keeps for reuse.
// Anything larger is dropped after use, so one large scan result does not pin
// its size on every connection it crossed.
const maxRetained = 64 << 10

// beginFrame starts a frame of msgType at the end of b: the five header bytes,
// which the codec appends the payload to and finishFrame completes. Frames
// begun one after another in one buffer lie back to back, ready for one Write.
func beginFrame(b []byte, msgType byte) []byte {
	return append(b, 0, 0, 0, 0, msgType)
}

// finishFrame fills in the length prefix of the frame that occupies b from
// offset start to its end.
func finishFrame(b []byte, start int) ([]byte, error) {
	n := len(b) - start - 4 // type byte + payload
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: %d byte payload exceeds MaxFrame", ErrBadFrame, n-1)
	}
	binary.BigEndian.PutUint32(b[start:], uint32(n))
	return b, nil
}

// WriteFrame writes one [u32 length][type byte][payload] frame in a single
// Write.
func WriteFrame(w io.Writer, msgType byte, payload []byte) error {
	b := make([]byte, 0, frameHeader+len(payload))
	frame, err := finishFrame(append(beginFrame(b, msgType), payload...), 0)
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

// readFrame reads one frame from r into buf's storage, growing it as needed,
// and returns the type and the payload (which aliases that storage). The
// connections pass a bufio.Reader, so a frame — or a burst of pipelined
// frames — costs one read of the socket.
func readFrame(r io.Reader, buf []byte) (byte, []byte, error) {
	// The header is read into the payload's own storage and overwritten by it:
	// a local array would escape through the Reader interface.
	hdr := grow(buf[:0], frameHeader)[:frameHeader]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n < 1 || n > MaxFrame {
		return 0, nil, fmt.Errorf("%w: length %d", ErrBadFrame, n)
	}
	msgType, need := hdr[4], int(n-1)
	payload := hdr[:0]
	for len(payload) < need {
		// Reserve no more than has already arrived (and readAhead to start
		// with): storage doubles behind the bytes, never ahead of them.
		step := min(need-len(payload), max(readAhead, len(payload)))
		payload = grow(payload, step)
		got, err := io.ReadFull(r, payload[len(payload):len(payload)+step])
		payload = payload[:len(payload)+got]
		if err != nil {
			return 0, nil, err
		}
	}
	return msgType, payload, nil
}

// grow returns b with room for n more bytes, at least doubling the storage
// when it has to move.
func grow(b []byte, n int) []byte {
	if cap(b)-len(b) >= n {
		return b
	}
	moved := make([]byte, len(b), max(len(b)+n, 2*cap(b)))
	copy(moved, b)
	return moved
}

// retain returns b emptied for reuse, or nil when it is too large to keep.
func retain(b []byte) []byte {
	if cap(b) > maxRetained {
		return nil
	}
	return b[:0]
}

// buffer is pooled byte storage for one frame: a reply being encoded on the
// server, a reply payload travelling from the client's read loop to the
// caller that decodes it. Whoever holds the *buffer owns b; putBuf ends that.
type buffer struct{ b []byte }

var bufPool = sync.Pool{New: func() any { return new(buffer) }}

func getBuf() *buffer { return bufPool.Get().(*buffer) }

func putBuf(fb *buffer) {
	fb.b = retain(fb.b)
	bufPool.Put(fb)
}

// frameWriter is the write half of a connection, shared by every goroutine
// that sends on it. It is flush-combining: send appends the frame to the
// out-buffer, and the sender that finds no flush in progress becomes the
// flusher — it writes everything queued, its own frame and whatever other
// senders append while a Write is in the kernel, until the buffer is empty.
// Frames that are ready together leave in one Write; a lone frame leaves at
// once. There is no timer: nothing ever waits for company.
type frameWriter struct {
	w io.Writer

	mu       sync.Mutex
	settled  sync.Cond // broadcast when a flush ends; sent waits on it
	out      []byte    // frames queued since the flusher last took the buffer
	spare    []byte    // the storage the last Write used, kept for the next swap
	flushing bool
	queued   uint64 // stream offset: bytes ever accepted by send
	written  uint64 // stream offset: bytes w has taken
	err      error  // first Write error; sticky, nothing is written after it
}

func (fw *frameWriter) init(w io.Writer) {
	fw.w = w
	fw.settled.L = &fw.mu
}

// send queues one whole frame and, unless another sender is already flushing,
// flushes. It returns the stream offset at which the frame ends (for sent) and
// the writer's error: non-nil means the connection carries nothing more, not
// that this particular frame was lost. A sender that found a flush in
// progress returns at once with a nil error; its frame goes out with the
// flusher's next Write.
func (fw *frameWriter) send(frame []byte) (end uint64, err error) {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	end = fw.queued + uint64(len(frame))
	if fw.err != nil {
		return end, fw.err
	}
	fw.queued = end
	fw.out = append(fw.out, frame...)
	if fw.flushing {
		return end, nil
	}
	fw.flushing = true
	for len(fw.out) > 0 && fw.err == nil {
		batch := fw.out
		fw.out, fw.spare = fw.spare, nil
		fw.mu.Unlock()
		n, err := fw.w.Write(batch)
		fw.mu.Lock()
		fw.written += uint64(n)
		fw.err = err
		fw.spare = retain(batch)
	}
	fw.flushing = false
	fw.settled.Broadcast()
	return end, fw.err
}

// sent reports whether the frame ending at stream offset end was handed to
// the connection whole. It waits out a flush in progress, so the answer is
// final: once no flush is running, every queued frame has been written or the
// writer has failed and never will write it.
func (fw *frameWriter) sent(end uint64) bool {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	for fw.flushing {
		fw.settled.Wait()
	}
	return end <= fw.written
}

// cut makes prefix — a frame cut short — the last bytes the connection
// carries, if allowed says so: it waits for the writer to be idle, asks, fails
// the writer and only then writes, under the lock, so that nothing can follow
// a torn frame onto the wire. Fault injection only.
func (fw *frameWriter) cut(prefix []byte, allowed func() bool) bool {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	for fw.flushing {
		fw.settled.Wait()
	}
	if fw.err != nil || !allowed() {
		return false
	}
	fw.err = errors.New("torn frame")
	_, _ = fw.w.Write(prefix) // the connection is being killed: the error changes nothing
	return true
}
