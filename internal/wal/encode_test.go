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
	"unicode/utf8"
)

// marshalRecord is the encoder EncodeRecord replaced, kept here as the
// reference: json.Marshal over the wire struct DecodeRecord still reads,
// with a string that is not valid UTF-8 in its []byte field. A record's
// values are int64s and strings (genRecord makes no others).
func marshalRecord(r Record) ([]byte, error) {
	w := wireRecord{LSN: r.LSN, Name: r.Name, SQL: r.SQL, Args: make([][]wireVal, len(r.ArgSets))}
	if !utf8.ValidString(r.Name) {
		w.Name, w.NameB = "", []byte(r.Name)
	}
	if !utf8.ValidString(r.SQL) {
		w.SQL, w.SQLB = "", []byte(r.SQL)
	}
	for i, set := range r.ArgSets {
		w.Args[i] = make([]wireVal, len(set))
		for j, v := range set {
			switch x := v.(type) {
			case int64:
				w.Args[i][j].I = &x
			case string:
				if utf8.ValidString(x) {
					w.Args[i][j].S = &x
				} else {
					w.Args[i][j].B = []byte(x)
				}
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

// A line decodes to the record it was encoded from, whatever bytes its
// strings hold; only a nil ArgSets comes back as an empty list.
func TestRecordLineRoundTripsExactly(t *testing.T) {
	seed := testSeed(t)
	rng := rand.New(rand.NewSource(seed))
	recs := goldenRecords()
	for i := 0; i < 4000; i++ {
		recs = append(recs, genRecord(rng))
	}
	for _, r := range recs {
		line, err := EncodeRecord(nil, r)
		if err != nil {
			t.Fatalf("seed %d: encode %+v: %v", seed, r, err)
		}
		got, err := DecodeRecord(line)
		if err != nil {
			t.Fatalf("seed %d: decode %q: %v", seed, line, err)
		}
		if r.ArgSets == nil {
			r.ArgSets = [][]any{}
		}
		if !reflect.DeepEqual(got, r) {
			t.Fatalf("seed %d: line %q decoded as\n%+v\nwant\n%+v", seed, line, got, r)
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

// testdata/wal.log was written by an earlier json.Marshal encoder, which
// wrote the invalid UTF-8 argument of LSN 6 as U+FFFD. The encoder must
// reproduce every other line byte for byte from the same records and write
// that argument's bytes instead; Load must read the old file as it stands,
// and read back what the encoder writes exactly.
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
	lossy := []byte(`{"s":"bad\ufffd\ufffdutf8\ufffd"}`)
	exact := []byte(`{"b":"YmFk//51dGY4ww=="}`)
	if bytes.Count(golden, lossy) != 1 {
		t.Fatalf("golden log does not hold LSN 6's argument as %s once", lossy)
	}
	encoded := encode(goldenRecords())
	if want := bytes.Replace(golden, lossy, exact, 1); !bytes.Equal(encoded, want) {
		t.Fatalf("encoder output differs from the parent's file\n got %q\nwant %q", encoded, want)
	}

	load := func(log []byte) []Record {
		t.Helper()
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal.log"), log, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := NewFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		_, recs, err := st.Load()
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		return recs
	}
	// Nil arg sets come back as an empty list, from either file.
	want := goldenRecords()
	want[6].ArgSets = [][]any{}
	if recs := load(encoded); !reflect.DeepEqual(recs, want) {
		t.Fatalf("encoded log loaded as\n%+v\nwant\n%+v", recs, want)
	}
	// The old file holds U+FFFD where the bytes were, and reads as that.
	want[5].ArgSets[0][0] = "bad\ufffd\ufffdutf8\ufffd"
	if recs := load(golden); !reflect.DeepEqual(recs, want) {
		t.Fatalf("golden log loaded as\n%+v\nwant\n%+v", recs, want)
	}
}
