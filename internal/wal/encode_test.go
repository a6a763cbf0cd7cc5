package wal

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// marshalRecord is the encoder EncodeRecord replaced, kept here as the
// reference: json.Marshal over the wire struct DecodeRecord still reads. A
// record's values are int64s and strings (genRecord makes no others).
func marshalRecord(r Record) ([]byte, error) {
	w := wireRecord{LSN: r.LSN, Name: r.Name, SQL: r.SQL, Args: make([][]wireVal, len(r.ArgSets))}
	for i, set := range r.ArgSets {
		w.Args[i] = make([]wireVal, len(set))
		for j, v := range set {
			switch x := v.(type) {
			case int64:
				w.Args[i][j].I = &x
			case string:
				w.Args[i][j].S = &x
			}
		}
	}
	b, err := json.Marshal(w)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// goldenRecords are the records testdata/wal.log holds, as the parent
// commit's FileStore (json.Marshal) wrote them.
func goldenRecords() []Record {
	return []Record{
		{LSN: 1, Name: "event", SQL: "insert into events (eid, uid, note) values (?, ?, ?)", ArgSets: [][]any{{int64(1), int64(42), "note-1"}}},
		{LSN: 2, Name: "batch", SQL: "insert into kv values (?, ?)", ArgSets: [][]any{{int64(math.MinInt64), ""}, {int64(math.MaxInt64), "x"}, {int64(0), "say \"hi\" \\ bye"}}},
		{LSN: 3, Name: "", SQL: "", ArgSets: [][]any{}},
		{LSN: 4, Name: "empty-set", SQL: "insert into t default values", ArgSets: [][]any{{}, {}}},
		{LSN: 5, Name: "ctl", SQL: "a\x00b\x01\b\f\n\r\t\x1f\x7f", ArgSets: [][]any{{"<script>&amp;</script>"}}},
		{LSN: 6, Name: "uni", SQL: "line\u2028para\u2029 café 日本 \U0001F600", ArgSets: [][]any{{"bad\xff\xfeutf8\xc3", int64(-7)}}},
		{LSN: 7, Name: "nilsets", SQL: "select 1", ArgSets: nil},
	}
}

// stringAlphabet is what the generated strings are drawn from: every class
// json.Marshal treats specially, beside plain text.
var stringAlphabet = []string{
	"a", "Z", "7", " ", "?", "(", ",", "note", "insert into t values (?)",
	`"`, `\`, "/", "'", "<", ">", "&",
	"\x00", "\x01", "\b", "\t", "\n", "\f", "\r", "\x1b", "\x1f", "\x7f",
	"\u2028", "\u2029", "\u2027", "\u202a", "é", "日本", "\U0001F600", "\ufffd",
	"\xff", "\xc3", "\xe2\x80", "\xf0\x9f\x98", "\xed\xa0\x80", "\xc0\xaf",
}

func genString(rng *rand.Rand) string {
	var b []byte
	for n := rng.Intn(8); n > 0; n-- {
		b = append(b, stringAlphabet[rng.Intn(len(stringAlphabet))]...)
	}
	return string(b)
}

func genRecord(rng *rand.Rand) Record {
	ints := []int64{0, 1, -1, 42, math.MaxInt64, math.MinInt64, math.MaxInt32, -1 << 40}
	r := Record{LSN: ints[rng.Intn(len(ints))], Name: genString(rng), SQL: genString(rng)}
	if rng.Intn(8) == 0 {
		return r // nil ArgSets
	}
	r.ArgSets = make([][]any, rng.Intn(4))
	for i := range r.ArgSets {
		set := make([]any, rng.Intn(4))
		for j := range set {
			if rng.Intn(2) == 0 {
				set[j] = ints[rng.Intn(len(ints))]
			} else {
				set[j] = genString(rng)
			}
		}
		r.ArgSets[i] = set
	}
	return r
}

// The append-style encoder must emit exactly the bytes json.Marshal did, for
// every record — the on-disk format did not change, only who writes it.
func TestEncodeRecordMatchesJSONMarshal(t *testing.T) {
	seed := testSeed(t)
	rng := rand.New(rand.NewSource(seed))
	recs := goldenRecords()
	for i := 0; i < 4000; i++ {
		recs = append(recs, genRecord(rng))
	}
	buf := []byte("prefix")
	for _, r := range recs {
		want, err := marshalRecord(r)
		if err != nil {
			t.Fatalf("seed %d: reference encode %+v: %v", seed, r, err)
		}
		got, err := EncodeRecord(buf, r)
		if err != nil {
			t.Fatalf("seed %d: encode %+v: %v", seed, r, err)
		}
		if !bytes.Equal(got[len(buf):], want) || !bytes.HasPrefix(got, buf) {
			t.Fatalf("seed %d: record %+v\n got %q\nwant %q", seed, r, got[len(buf):], want)
		}
	}
}

func TestEncodeRecordRejectsUnknownType(t *testing.T) {
	dst := []byte("kept")
	got, err := EncodeRecord(dst, Record{LSN: 1, ArgSets: [][]any{{int64(1), 3.5}}})
	if err == nil {
		t.Fatal("float64 value encoded; want an error")
	}
	if string(got) != "kept" {
		t.Fatalf("dst after a failed encode = %q, want it back at its original length", got)
	}
}

// testdata/wal.log was written by the parent commit's json.Marshal encoder.
// The new encoder must reproduce it byte for byte from the same records, and
// the new Load must read it back.
func TestGoldenLogReadAndReproduced(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	encode := func(recs []Record) []byte {
		var out []byte
		for _, r := range recs {
			if out, err = EncodeRecord(out, r); err != nil {
				t.Fatalf("encode LSN %d: %v", r.LSN, err)
			}
		}
		return out
	}
	if got := encode(goldenRecords()); !bytes.Equal(got, golden) {
		t.Fatalf("encoder output differs from the parent's file\n got %q\nwant %q", got, golden)
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, recs, err := st.Load()
	if err != nil {
		t.Fatalf("load golden log: %v", err)
	}
	// What decoding cannot give back: invalid UTF-8 was written as U+FFFD,
	// and nil arg sets as an empty list.
	want := goldenRecords()
	want[5].ArgSets[0][0] = "bad\ufffd\ufffdutf8\ufffd"
	want[6].ArgSets = [][]any{}
	if !reflect.DeepEqual(recs, want) {
		t.Fatalf("golden log loaded as\n%+v\nwant\n%+v", recs, want)
	}
}
