package wal

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// MemStore keeps lines in chunks that are never reallocated, a line never
// spanning two. Against a plain slice of the records it was handed: lines
// across chunk boundaries, lines longer than a chunk, a batch that re-issues
// LSNs (cutting inside an earlier chunk), and checkpoints that drop a
// prefix; every Records range and Load must decode what was appended. A
// FileStore runs the same steps over its MemStore, syncing after each: its
// Records read no file (they succeed with wal.log renamed away), and a fresh
// FileStore loading the directory gives the same suffix, so a re-issued LSN
// replaces the same lines on append and on recovery.
func TestMemStoreChunksHoldEveryLine(t *testing.T) {
	for _, name := range []string{"MemStore", "FileStore"} {
		t.Run(name, func(t *testing.T) { testChunksHoldEveryLine(t, name == "FileStore") })
	}
}

func testChunksHoldEveryLine(t *testing.T, file bool) {
	seed := testSeed(t)
	rng := rand.New(rand.NewSource(seed))
	m := NewMemStore()
	var st Store = m
	dir := t.TempDir()
	if file {
		fs, err := NewFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer fs.Close()
		st, m = fs, &fs.MemStore
	}
	var want []Record // want[i].LSN == first+i
	first := int64(1)
	rec := func(lsn int64) Record {
		note := strings.Repeat("n", rng.Intn(400))
		if rng.Intn(200) == 0 {
			note = strings.Repeat("L", memChunkSize+rng.Intn(1000)) // a chunk of its own
		}
		return Record{LSN: lsn, Name: "w", SQL: "insert into t values (?, ?)", ArgSets: [][]any{{lsn, note}}}
	}
	log := filepath.Join(dir, "wal.log")
	check := func(step int) {
		t.Helper()
		if file { // the reads below must not need wal.log
			if err := st.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := os.Rename(log, log+".away"); err != nil {
				t.Fatal(err)
			}
		}
		last := first + int64(len(want)) - 1
		for j := 0; j < 4; j++ {
			after := first - 1 + rng.Int63n(int64(len(want))+1)
			upto := after + rng.Int63n(last-after+1)
			got, err := st.Records(after, upto)
			if err != nil {
				t.Fatalf("seed %d step %d: Records(%d, %d): %v", seed, step, after, upto, err)
			}
			if w := want[after+1-first : upto+1-first]; len(got) != len(w) || (len(w) > 0 && !reflect.DeepEqual(got, w)) {
				t.Fatalf("seed %d step %d: Records(%d, %d) gave %d records, want %d", seed, step, after, upto, len(got), len(w))
			}
		}
		if _, err := st.Records(first-2, last); first > 1 && err == nil {
			t.Fatalf("seed %d step %d: Records before the first kept LSN %d did not fail", seed, step, first)
		}
		if _, err := st.Records(first-1, last+1); err == nil {
			t.Fatalf("seed %d step %d: Records past the last kept LSN %d did not fail", seed, step, last)
		}
		if !file {
			return
		}
		if err := os.Rename(log+".away", log); err != nil {
			t.Fatal(err)
		}
		fresh, err := NewFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer fresh.Close()
		if _, recs, err := fresh.Load(); err != nil || len(recs) != len(want) || (len(want) > 0 && !reflect.DeepEqual(recs, want)) {
			t.Fatalf("seed %d step %d: a fresh FileStore loaded %d records (%v), want %d", seed, step, len(recs), err, len(want))
		}
	}
	arrays := map[*byte]int{} // each chunk's array, by its capacity
	most := 0                 // the most chunks held at once
	for step := 0; step < 60; step++ {
		next := first + int64(len(want))
		switch op := rng.Intn(8); {
		case op == 0 && len(want) > 0: // re-issue from an LSN a crash took back
			next = first + rng.Int63n(int64(len(want)))
			want = want[:next-first]
		case op == 1 && len(want) > 0: // checkpoint
			lsn := first - 1 + rng.Int63n(int64(len(want))+1)
			if err := st.WriteSnapshot(&Snapshot{LSN: lsn}); err != nil {
				t.Fatal(err)
			}
			want, first = want[lsn+1-first:], lsn+1
			clear(arrays) // the kept lines moved to fresh chunks
			check(step)
			continue
		}
		batch := make([]Record, 1+rng.Intn(200))
		for i := range batch {
			batch[i] = rec(next + int64(i))
		}
		if len(want) == 0 {
			first = next
		}
		if _, err := st.AppendRecords(batch); err != nil {
			t.Fatal(err)
		}
		want = append(want, batch...)
		for _, c := range m.chunks[:len(m.chunks)-1] {
			if cap(c.lines) < memChunkSize {
				t.Fatalf("seed %d step %d: a chunk of capacity %d", seed, step, cap(c.lines))
			}
		}
		for _, c := range m.chunks {
			p := unsafe.SliceData(c.lines)
			if n, ok := arrays[p]; ok && n != cap(c.lines) {
				t.Fatalf("seed %d step %d: a chunk was reallocated", seed, step)
			}
			arrays[p] = cap(c.lines)
		}
		most = max(most, len(m.chunks))
		check(step)
	}
	if most < 3 {
		t.Fatalf("seed %d: at most %d chunks; the test wants lines across chunk boundaries", seed, most)
	}
	if _, recs, err := st.Load(); err != nil || !reflect.DeepEqual(recs, want) {
		t.Fatalf("seed %d: Load gave %d records (%v), want %d", seed, len(recs), err, len(want))
	}
}
