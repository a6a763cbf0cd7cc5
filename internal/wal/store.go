package wal

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"unicode/utf8"
)

// Store is the log's persistence backend. AppendRecords stages encoded
// records — recs is a range of the log's own tail, lent for the call: read
// it, keep and change nothing of it; Sync makes everything staged so far
// durable (the fsync whose cost the Syncer charges); WriteSnapshot atomically
// replaces the checkpoint and drops the records it covers. Records decodes
// the synced records with LSN in (after, upto] — the log asks only for a
// range it has synced, with no store call in flight; a later record of an
// LSN replaces the earlier one and those past it, as a re-issue after a
// Crash did. Load returns the durable state — what a process restart would
// find. Both stores keep the lines in memory (MemStore), and a FileStore
// also writes them to a file, which only its Load reads.
type Store interface {
	AppendRecords(recs []Record) (bytes int, err error)
	Sync() error
	WriteSnapshot(snap *Snapshot) error
	Records(after, upto int64) ([]Record, error)
	Load() (*Snapshot, []Record, error)
	Close() error
}

// wire formats. Values are tagged so int64/string fidelity survives JSON
// ({"i":…} vs {"s":…}): a bare JSON number would come back float64 and break
// the byte-identical differential contract. A string that is not valid UTF-8
// is its bytes in base64 — a value {"b":…}, a name or statement an empty
// string and "name_b" or "sql_b" after it: JSON text cannot carry those
// bytes, and a quoted string would come back with U+FFFD in their place.

type wireVal struct {
	I *int64  `json:"i,omitempty"`
	S *string `json:"s,omitempty"`
	B []byte  `json:"b,omitempty"`
}

type wireRecord struct {
	LSN   int64       `json:"lsn"`
	Name  string      `json:"name"`
	NameB []byte      `json:"name_b,omitempty"`
	SQL   string      `json:"sql"`
	SQLB  []byte      `json:"sql_b,omitempty"`
	Args  [][]wireVal `json:"args"`
}

func decodeVals(ws []wireVal) []any {
	out := make([]any, len(ws))
	for i, w := range ws {
		if w.I != nil {
			out[i] = *w.I
		} else if w.S != nil {
			out[i] = *w.S
		} else if w.B != nil {
			out[i] = string(w.B)
		}
	}
	return out
}

// EncodeRecord appends one record's JSON line to dst and returns the
// extended slice: the line a MemStore keeps, whose length the Syncer is
// charged, and the one a FileStore writes. The line is byte for byte what
// json.Marshal renders for wireRecord (each string in its B field when it is
// not valid UTF-8) — DecodeRecord, which still goes through
// encoding/json, and every wal.log already on disk read it unchanged — but it
// is written straight into the caller's buffer: no reflection, no per-value
// pointers, and no garbage when dst has room. On error dst comes back at its
// original length.
func EncodeRecord(dst []byte, r Record) ([]byte, error) {
	start := len(dst)
	dst = append(dst, `{"lsn":`...)
	dst = strconv.AppendInt(dst, r.LSN, 10)
	dst = appendText(dst, "name", r.Name)
	dst = appendText(dst, "sql", r.SQL)
	dst = append(dst, `,"args":[`...)
	for i, set := range r.ArgSets {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		for j, v := range set {
			if j > 0 {
				dst = append(dst, ',')
			}
			switch x := v.(type) {
			case int64:
				dst = append(dst, `{"i":`...)
				dst = strconv.AppendInt(dst, x, 10)
			case string:
				if utf8.ValidString(x) {
					dst = append(dst, `{"s":`...)
					dst = appendJSONString(dst, x)
				} else {
					dst = append(dst, `{"b":`...)
					dst = appendBase64(dst, x)
				}
			default:
				return dst[:start], fmt.Errorf("wal: cannot encode %T value", v)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, "]}\n"...), nil
}

// appendText appends the record field key holding s: s quoted, or, when s
// is not valid UTF-8, an empty string and key_b holding its bytes.
func appendText(dst []byte, key, s string) []byte {
	dst = append(append(append(dst, `,"`...), key...), `":`...)
	if utf8.ValidString(s) {
		return appendJSONString(dst, s)
	}
	dst = append(append(append(dst, `"","`...), key...), `_b":`...)
	return appendBase64(dst, s)
}

// appendBase64 appends s's bytes as json.Marshal renders a []byte.
func appendBase64(dst []byte, s string) []byte {
	dst = append(dst, '"')
	return append(base64.StdEncoding.AppendEncode(dst, []byte(s)), '"')
}

// appendJSONString appends s, valid UTF-8, as json.Marshal quotes it: the
// two-character escapes for `"`, `\` and \b \f \n \r \t, \u00XX for the
// other control bytes and for < > & (Marshal's HTML-safe default), and
// \u2028 and \u2029 escaped.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xf])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xf])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// DecodeRecord parses one EncodeRecord line.
func DecodeRecord(line []byte) (Record, error) {
	var w wireRecord
	if err := json.Unmarshal(line, &w); err != nil {
		return Record{}, err
	}
	r := Record{LSN: w.LSN, Name: w.Name, SQL: w.SQL, ArgSets: make([][]any, len(w.Args))}
	if w.NameB != nil {
		r.Name = string(w.NameB)
	}
	if w.SQLB != nil {
		r.SQL = string(w.SQLB)
	}
	for i, set := range w.Args {
		r.ArgSets[i] = decodeVals(set)
	}
	return r, nil
}

// MemStore keeps the durable state in memory — the default backend for
// simulated durability, where the cost model (Syncer) matters but process
// restarts do not, and the memory side of a FileStore. A record is kept as
// the line EncodeRecord wrote for it — the bytes a FileStore writes, whose
// length the Syncer is charged — not as a Record: the lines sit back to
// back in chunks of memChunkSize that are never reallocated, and Records
// decodes a range of them. Crash recovery against a MemStore works because
// the Log itself only asks for the synced prefix.
type MemStore struct {
	snap   *Snapshot
	first  int64 // LSN of the first kept line; the lines are LSN-dense
	n      int64 // lines kept
	chunks []memChunk
	buf    []byte // encode scratch: a line is copied into its chunk whole
}

// memChunkSize is a MemStore chunk's capacity. A line that does not fit in
// the last chunk starts the next, and a line longer than a chunk gets one of
// its own length, so a line never spans two chunks.
const memChunkSize = 64 << 10

// memChunk holds whole lines: line i is lines[ends[i-1]:ends[i]].
type memChunk struct {
	lines []byte
	ends  []int32
}

func (c *memChunk) start(i int) int32 {
	if i == 0 {
		return 0
	}
	return c.ends[i-1]
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// AppendRecords encodes the records and keeps their lines, reporting their
// encoded size.
func (m *MemStore) AppendRecords(recs []Record) (int, error) {
	bytes := 0
	for _, r := range recs {
		var err error
		if m.buf, err = EncodeRecord(m.buf[:0], r); err != nil {
			return bytes, err
		}
		bytes += len(m.buf)
		m.put(r.LSN, m.buf)
	}
	return bytes, nil
}

// put keeps line as the record of LSN lsn. An LSN at or below the last kept
// one was issued again after a Crash took back a tail that was staged but
// never synced: its line replaces the kept line of that LSN and every line
// after it, whether it comes from an append or from recovery reading
// wal.log.
func (m *MemStore) put(lsn int64, line []byte) {
	if k := lsn - m.first; m.n > 0 && k < m.n {
		m.cut(max(k, 0))
	}
	if m.n == 0 {
		m.first = lsn
	}
	m.add(line)
}

func (m *MemStore) add(line []byte) {
	last := len(m.chunks) - 1
	if last < 0 || len(m.chunks[last].lines)+len(line) > cap(m.chunks[last].lines) {
		m.chunks = append(m.chunks, memChunk{
			lines: make([]byte, 0, max(memChunkSize, len(line))),
			ends:  make([]int32, 0, memChunkSize/128), // a benchmark insert's line is 134 bytes
		})
		last++
	}
	c := &m.chunks[last]
	c.lines = append(c.lines, line...)
	c.ends = append(c.ends, int32(len(c.lines)))
	m.n++
}

// at locates kept line k (k < n): its chunk and its index there.
func (m *MemStore) at(k int64) (c, i int) {
	for c = range m.chunks {
		if k < int64(len(m.chunks[c].ends)) {
			return c, int(k)
		}
		k -= int64(len(m.chunks[c].ends))
	}
	return len(m.chunks), 0
}

// cut keeps the first k lines (k < n); the chunk that line k was in keeps
// its storage for the lines that replace it.
func (m *MemStore) cut(k int64) {
	c, i := m.at(k)
	ch := &m.chunks[c]
	ch.lines, ch.ends = ch.lines[:ch.start(i)], ch.ends[:i]
	clear(m.chunks[c+1:])
	m.chunks, m.n = m.chunks[:c+1], k
}

// each calls f on kept lines k to k+n-1, in order. f has the shape of a
// Write, so a writer's Write can take the lines.
func (m *MemStore) each(k, n int64, f func(line []byte) (int, error)) error {
	for c, i := m.at(k); n > 0; n, i = n-1, i+1 {
		for i == len(m.chunks[c].ends) {
			c, i = c+1, 0
		}
		ch := &m.chunks[c]
		if _, err := f(ch.lines[ch.start(i):ch.ends[i]]); err != nil {
			return err
		}
	}
	return nil
}

// Sync is a no-op: staged records are already in memory.
func (m *MemStore) Sync() error { return nil }

// WriteSnapshot replaces the checkpoint and drops the lines it covers,
// copying the rest into fresh chunks.
func (m *MemStore) WriteSnapshot(snap *Snapshot) error {
	m.snap = snap
	drop := min(snap.LSN+1-m.first, m.n)
	if m.n == 0 || drop <= 0 {
		return nil
	}
	old := *m
	m.chunks, m.first, m.n = nil, snap.LSN+1, 0
	return old.each(drop, old.n-drop, func(line []byte) (int, error) {
		m.add(line)
		return len(line), nil
	})
}

// Records decodes the kept lines with LSN in (after, upto].
func (m *MemStore) Records(after, upto int64) ([]Record, error) {
	if upto <= after {
		return nil, nil
	}
	if after+1 < m.first || upto >= m.first+m.n {
		return nil, fmt.Errorf("wal: store holds LSNs %d to %d, not %d to %d", m.first, m.first+m.n-1, after+1, upto)
	}
	recs := make([]Record, 0, upto-after)
	err := m.each(after+1-m.first, upto-after, func(line []byte) (int, error) {
		r, err := DecodeRecord(line)
		recs = append(recs, r)
		return len(line), err
	})
	if err != nil {
		return nil, err
	}
	return recs, nil
}

// Load returns the stored snapshot and record suffix.
func (m *MemStore) Load() (*Snapshot, []Record, error) {
	recs, err := m.Records(m.first-1, m.first+m.n-1)
	return m.snap, recs, err
}

// Close is a no-op.
func (m *MemStore) Close() error { return nil }

// FileStore is a MemStore that also writes its lines under a directory:
// each line it keeps goes to wal.log as well, and the checkpoint to
// snapshot.json. Reads are the MemStore's, so a catch-up never reads the
// file; only Load does. Both files are only ever replaced whole
// (replaceFile), so a torn checkpoint never corrupts recovery.
type FileStore struct {
	MemStore
	dir string
	f   *os.File
	w   *bufio.Writer
}

// NewFileStore opens (creating if needed) a file-backed store in dir.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return &FileStore{dir: dir, f: f, w: bufio.NewWriter(f)}, nil
}

// AppendRecords keeps the records' lines, as a MemStore does, and stages
// the lines it just kept in the write buffer. A batch that fails to encode
// stages nothing: the flusher hands it over again, and the lines kept of it
// are replaced then.
func (s *FileStore) AppendRecords(recs []Record) (int, error) {
	bytes, err := s.MemStore.AppendRecords(recs)
	if err != nil {
		return bytes, err
	}
	return bytes, s.each(s.n-int64(len(recs)), int64(len(recs)), s.w.Write)
}

// Sync flushes the buffer and fsyncs the log file.
func (s *FileStore) Sync() error {
	if err := s.w.Flush(); err != nil {
		return err
	}
	return s.f.Sync()
}

// replaceFile puts new contents under name crash-atomically: write
// name.tmp, fsync it, rename it over name. A process that dies at any point
// leaves either the old file or the new one, whole.
func (s *FileStore) replaceFile(name string, write func(w *bufio.Writer) error) error {
	tmp := filepath.Join(s.dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err = write(w); err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(s.dir, name))
}

// WriteSnapshot replaces snapshot.json, rewrites wal.log from the kept lines
// past the checkpoint — each file through replaceFile, snapshot first — and
// then drops the covered lines from memory. Load skips records at or below
// the snapshot, so whichever step a crash (or an error) interrupts, the
// directory holds a loadable pair with every synced record past the
// snapshot in it, and a store whose rewrite failed keeps appending to the
// log it has and still reads every line it held.
func (s *FileStore) WriteSnapshot(snap *Snapshot) error {
	b, err := json.Marshal(snap.wire())
	if err != nil {
		return err
	}
	err = s.replaceFile("snapshot.json", func(w *bufio.Writer) error {
		_, err := w.Write(b)
		return err
	})
	if err == nil {
		err = s.replaceFile("wal.log", func(w *bufio.Writer) error {
			k := min(max(snap.LSN+1-s.first, 0), s.n)
			return s.each(k, s.n-k, w.Write)
		})
	}
	if err != nil {
		return err
	}
	// The append handle still names the file the rename just unlinked.
	f, err := os.OpenFile(filepath.Join(s.dir, "wal.log"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	s.f.Close() // the lines still in its buffer are in the new file
	s.f, s.w = f, bufio.NewWriter(f)
	return s.MemStore.WriteSnapshot(snap)
}

// lineLSN reads the LSN EncodeRecord writes first in a line, without
// decoding the rest; ok is false when the line does not start that way.
func lineLSN(line []byte) (lsn int64, ok bool) {
	digits, found := bytes.CutPrefix(line, []byte(`{"lsn":`))
	if end := bytes.IndexByte(digits, ','); found && end > 0 {
		lsn, err := strconv.ParseInt(string(digits[:end]), 10, 64)
		return lsn, err == nil
	}
	return 0, false
}

// Load rebuilds the store from disk: the snapshot, then each whole line of
// wal.log past it, kept by its leading LSN (put), and returns what
// MemStore.Load decodes of them. A process that died between AppendRecords
// and Sync can leave part of a record behind (the write buffer spills to
// the file whenever it fills): a final segment with no newline after it was
// never synced, so never acknowledged, and is not a record — a record's
// newline leaves in the same write as its last byte. Load drops it and
// truncates wal.log back to the last whole line, so the next append does
// not land behind the garbage. A newline-terminated line that does not
// decode is corruption inside the durable prefix and stays an error.
func (s *FileStore) Load() (*Snapshot, []Record, error) {
	s.MemStore = MemStore{}
	if b, err := os.ReadFile(filepath.Join(s.dir, "snapshot.json")); err == nil {
		var w wireSnapshot
		if err := json.Unmarshal(b, &w); err != nil {
			return nil, nil, err
		}
		if s.snap, err = w.snapshot(); err != nil {
			return nil, nil, err
		}
	} else if !os.IsNotExist(err) {
		return nil, nil, err
	}
	data, err := os.ReadFile(filepath.Join(s.dir, "wal.log"))
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, err
	}
	if whole := bytes.LastIndexByte(data, '\n') + 1; whole < len(data) {
		if err := s.f.Truncate(int64(whole)); err != nil {
			return nil, nil, fmt.Errorf("wal: drop torn final record: %w", err)
		}
		data = data[:whole]
	}
	for len(data) > 0 {
		end := bytes.IndexByte(data, '\n') + 1
		line := data[:end]
		data = data[end:]
		switch lsn, ok := lineLSN(line); {
		case len(bytes.TrimSpace(line)) == 0:
		case !ok:
			return nil, nil, fmt.Errorf("wal: wal.log line %q does not start with its LSN", line)
		case s.snap == nil || lsn > s.snap.LSN:
			s.put(lsn, line)
		}
	}
	return s.MemStore.Load()
}

// Close flushes and closes the log file.
func (s *FileStore) Close() error {
	if err := s.w.Flush(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}
