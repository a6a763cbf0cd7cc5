package wal

import (
	"bufio"
	"bytes"
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
// replaces the checkpoint and drops the records it covers. Load returns the
// durable state — what a process restart would find.
type Store interface {
	AppendRecords(recs []Record) (bytes int, err error)
	Sync() error
	WriteSnapshot(snap *Snapshot) error
	Load() (*Snapshot, []Record, error)
	Close() error
}

// wire formats. Values are tagged so int64/string fidelity survives JSON
// ({"i":…} vs {"s":…}): a bare JSON number would come back float64 and break
// the byte-identical differential contract.

type wireVal struct {
	I *int64  `json:"i,omitempty"`
	S *string `json:"s,omitempty"`
}

type wireRecord struct {
	LSN  int64       `json:"lsn"`
	Name string      `json:"name"`
	SQL  string      `json:"sql"`
	Args [][]wireVal `json:"args"`
}

func decodeVals(ws []wireVal) []any {
	out := make([]any, len(ws))
	for i, w := range ws {
		if w.I != nil {
			out[i] = *w.I
		} else if w.S != nil {
			out[i] = *w.S
		}
	}
	return out
}

// EncodeRecord appends one record's JSON line to dst and returns the
// extended slice (shared by both stores so MemStore's byte accounting matches
// what FileStore would have written). The line is byte for byte what
// json.Marshal renders for wireRecord — DecodeRecord, which still goes through
// encoding/json, and every wal.log already on disk read it unchanged — but it
// is written straight into the caller's buffer: no reflection, no per-value
// pointers, and no garbage when dst has room. On error dst comes back at its
// original length.
func EncodeRecord(dst []byte, r Record) ([]byte, error) {
	start := len(dst)
	dst = append(dst, `{"lsn":`...)
	dst = strconv.AppendInt(dst, r.LSN, 10)
	dst = append(dst, `,"name":`...)
	dst = appendJSONString(dst, r.Name)
	dst = append(dst, `,"sql":`...)
	dst = appendJSONString(dst, r.SQL)
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
				dst = append(dst, `{"s":`...)
				dst = appendJSONString(dst, x)
			default:
				return dst[:start], fmt.Errorf("wal: cannot encode %T value", v)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, "]}\n"...), nil
}

// appendJSONString appends s as json.Marshal quotes it: the two-character
// escapes for `"`, `\` and \b \f \n \r \t, \u00XX for the other control
// bytes and for < > & (Marshal's HTML-safe default), \u2028 and \u2029
// escaped, and each invalid UTF-8 byte replaced by \ufffd.
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
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
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
	for i, set := range w.Args {
		r.ArgSets[i] = decodeVals(set)
	}
	return r, nil
}

// MemStore keeps the durable state in memory — the default backend for
// simulated durability, where the cost model (Syncer) matters but process
// restarts do not. Crash recovery against a MemStore works because the Log
// itself only exposes the synced prefix.
type MemStore struct {
	snap *Snapshot
	recs []Record // LSN-dense, like the log's tail
	buf  []byte   // encode scratch, reused: only the encoded length is kept
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// AppendRecords stages the records as handed over — Log.Append already took
// the copy that detaches them from the caller's arguments — and reports their
// encoded size. A batch that starts at or below the last staged LSN re-issues
// LSNs a Crash took back from a tail that was staged but never synced; it
// replaces that tail, as recovery's truncation would have on disk.
func (m *MemStore) AppendRecords(recs []Record) (int, error) {
	if n := len(m.recs); n > 0 && len(recs) > 0 && recs[0].LSN <= m.recs[n-1].LSN {
		m.recs = m.recs[:recs[0].LSN-m.recs[0].LSN]
	}
	bytes := 0
	for _, r := range recs {
		var err error
		if m.buf, err = EncodeRecord(m.buf[:0], r); err != nil {
			return bytes, err
		}
		bytes += len(m.buf)
		m.recs = append(m.recs, r)
	}
	return bytes, nil
}

// Sync is a no-op: staged records are already in memory.
func (m *MemStore) Sync() error { return nil }

// WriteSnapshot replaces the checkpoint and truncates covered records.
func (m *MemStore) WriteSnapshot(snap *Snapshot) error {
	m.snap = snap
	if len(m.recs) > 0 {
		covered := min(max(snap.LSN+1-m.recs[0].LSN, 0), int64(len(m.recs)))
		m.recs = append([]Record(nil), m.recs[covered:]...)
	}
	return nil
}

// Load returns the stored snapshot and record suffix.
func (m *MemStore) Load() (*Snapshot, []Record, error) {
	return m.snap, append([]Record(nil), m.recs...), nil
}

// Close is a no-op.
func (m *MemStore) Close() error { return nil }

// FileStore persists the log under a directory: records as JSON lines in
// wal.log, the checkpoint in snapshot.json. Both are only ever replaced
// whole (replaceFile), so a torn checkpoint never corrupts recovery.
type FileStore struct {
	dir string
	f   *os.File
	w   *bufio.Writer
	buf []byte // encode scratch, reused across records
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

// AppendRecords stages encoded records in the write buffer.
func (s *FileStore) AppendRecords(recs []Record) (int, error) {
	bytes := 0
	for _, r := range recs {
		n, err := s.writeRecord(s.w, r)
		bytes += n
		if err != nil {
			return bytes, err
		}
	}
	return bytes, nil
}

func (s *FileStore) writeRecord(w *bufio.Writer, r Record) (int, error) {
	var err error
	if s.buf, err = EncodeRecord(s.buf[:0], r); err != nil {
		return 0, err
	}
	return w.Write(s.buf)
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

// WriteSnapshot replaces the checkpoint, then rewrites wal.log with only the
// records past it — each through replaceFile, snapshot first. Load skips
// records at or below the snapshot, so whichever step a crash (or an error)
// interrupts, the directory holds a loadable pair with every synced record
// past the snapshot in it, and the store keeps appending to the log it has.
func (s *FileStore) WriteSnapshot(snap *Snapshot) error {
	b, err := json.Marshal(snap.wire())
	if err != nil {
		return err
	}
	err = s.replaceFile("snapshot.json", func(w *bufio.Writer) error {
		_, err := w.Write(b)
		return err
	})
	if err != nil {
		return err
	}
	if err := s.Sync(); err != nil {
		return err
	}
	_, recs, err := s.Load() // the suffix past the snapshot just installed
	if err != nil {
		return err
	}
	err = s.replaceFile("wal.log", func(w *bufio.Writer) error {
		for _, r := range recs {
			if _, err := s.writeRecord(w, r); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	// The append handle still names the file the rename just unlinked.
	f, err := os.OpenFile(filepath.Join(s.dir, "wal.log"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	s.f.Close() // flushed and synced above; nothing reads the unlinked file
	s.f, s.w = f, bufio.NewWriter(f)
	return nil
}

// Load reads the durable snapshot and records from disk. A process that died
// between AppendRecords and Sync can leave part of a record behind (the write
// buffer spills to the file whenever it fills): a final segment with no
// newline after it was never synced, so never acknowledged, and is not a
// record — a record's newline leaves in the same write as its last byte. Load
// drops it and truncates wal.log back to the last whole line, so the next
// append does not land behind the garbage. A newline-terminated line that
// does not decode is corruption inside the durable prefix and stays an error.
func (s *FileStore) Load() (*Snapshot, []Record, error) {
	var snap *Snapshot
	if b, err := os.ReadFile(filepath.Join(s.dir, "snapshot.json")); err == nil {
		var w wireSnapshot
		if err := json.Unmarshal(b, &w); err != nil {
			return nil, nil, err
		}
		sn, err := w.snapshot()
		if err != nil {
			return nil, nil, err
		}
		snap = sn
	} else if !os.IsNotExist(err) {
		return nil, nil, err
	}
	data, err := os.ReadFile(filepath.Join(s.dir, "wal.log"))
	if err != nil {
		if os.IsNotExist(err) {
			return snap, nil, nil
		}
		return nil, nil, err
	}
	if whole := bytes.LastIndexByte(data, '\n') + 1; whole < len(data) {
		if err := s.f.Truncate(int64(whole)); err != nil {
			return nil, nil, fmt.Errorf("wal: drop torn final record: %w", err)
		}
		data = data[:whole]
	}
	var recs []Record
	for len(data) > 0 {
		line, rest, _ := bytes.Cut(data, []byte{'\n'})
		data = rest
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		r, err := DecodeRecord(line)
		if err != nil {
			return nil, nil, err
		}
		if snap != nil && r.LSN <= snap.LSN {
			continue
		}
		recs = append(recs, r)
	}
	return snap, recs, nil
}

// Close flushes and closes the log file.
func (s *FileStore) Close() error {
	if err := s.w.Flush(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}
