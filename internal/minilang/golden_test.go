package minilang_test

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/ir"
	"repro/internal/minilang"
)

// A mutant is one edit of a program: truncated at off, with the byte at off
// deleted, or with one byte inserted at off.
type mutant struct {
	name string // "trunc", "del" or "ins" plus the inserted byte
	off  int
	src  string
}

// inserts are the bytes a mutant may insert: the punctuation the grammar
// turns on, a quote, an identifier and a digit.
const inserts = `;(){}=,?!."x1`

// mutants returns n deterministic edits of src at offsets sampled by a
// generator seeded from the program's name.
func mutants(prog, src string, n int) []mutant {
	h := fnv.New64a()
	h.Write([]byte(prog))
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	out := make([]mutant, 0, n)
	for len(out) < n {
		off := rng.Intn(len(src) + 1)
		switch k := rng.Intn(2 + len(inserts)); {
		case k == 0:
			out = append(out, mutant{"trunc", off, src[:off]})
		case k == 1 && off < len(src):
			out = append(out, mutant{"del", off, src[:off] + src[off+1:]})
		case k >= 2:
			c := inserts[k-2 : k-1]
			out = append(out, mutant{"ins" + c, off, src[:off] + c + src[off:]})
		}
	}
	return out
}

// program is one parser input of the golden set.
type program struct{ name, src string }

// programs are the five apps' kernels, named as the apps are, and the Table I
// corpus procedures as ir.Print renders them, named auction1…9 and bboard1…8.
func programs() []program {
	var out []program
	for _, a := range apps.All() {
		out = append(out, program{a.Name, a.Source})
	}
	for _, c := range []struct {
		name   string
		corpus *apps.CorpusApp
	}{{"auction", apps.AuctionCorpus()}, {"bboard", apps.BulletinCorpus()}} {
		for i, p := range c.corpus.Procs {
			out = append(out, program{fmt.Sprintf("%s%d", c.name, i+1), ir.Print(p)})
		}
	}
	return out
}

// mutantsPerProgram sizes the golden at about 3 000 cases.
const mutantsPerProgram = 128

// renderParseGolden parses every mutant of every program and writes one line
// per mutant: the program, the edit, its offset, and Parse's exact error or
// "ok" with an FNV-64a of the printed procedure.
func renderParseGolden() string {
	var b strings.Builder
	for _, p := range programs() {
		for _, m := range mutants(p.name, p.src, mutantsPerProgram) {
			fmt.Fprintf(&b, "%s %s %d ", p.name, m.name, m.off)
			proc, err := minilang.Parse(m.src)
			if err != nil {
				b.WriteString(err.Error())
			} else {
				h := fnv.New64a()
				h.Write([]byte(ir.Print(proc)))
				fmt.Fprintf(&b, "ok %016x", h.Sum64())
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestParseGolden replays testdata/parse.golden byte for byte. The file was
// written by the parser of d2a3bfb, which returned each rule's error up the
// call chain by hand; no flag regenerates it.
func TestParseGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/parse.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(string(raw), "\n")
	got := strings.Split(renderParseGolden(), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d golden lines, %d rendered", len(want), len(got))
	}
	bad := 0
	for i := range want {
		if got[i] != want[i] {
			if bad++; bad <= 10 {
				t.Errorf("line %d:\n golden %s\n    got %s", i+1, want[i], got[i])
			}
		}
	}
	if bad > 10 {
		t.Errorf("%d lines differ", bad)
	}
}
