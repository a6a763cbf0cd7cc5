package minilang_test

import (
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/minilang"
)

// FuzzParse holds Parse to its contract on any input: it returns, without a
// panic; a program it accepts prints and re-parses to an equal tree; and an
// error it returns is an *Error positioned inside the input. The seeds are the
// parse golden's programs and their mutants.
func FuzzParse(f *testing.F) {
	for _, p := range programs() {
		f.Add(p.src)
		for _, m := range mutants(p.name, p.src, mutantsPerProgram) {
			f.Add(m.src)
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		proc, err := minilang.Parse(src)
		if err != nil {
			perr, ok := err.(*minilang.Error)
			if !ok {
				t.Fatalf("error %v is a %T, not an *Error", err, err)
			}
			lines := strings.Split(src, "\n")
			if perr.Line < 1 || perr.Line > len(lines) || perr.Col < 1 || perr.Col > len(lines[perr.Line-1])+1 {
				t.Fatalf("error %v lies outside the input's %d lines", err, len(lines))
			}
			return
		}
		printed := ir.Print(proc)
		again, err := minilang.Parse(printed)
		if err != nil {
			t.Fatalf("printed program does not parse: %v\n%s", err, printed)
		}
		if !ir.EqualProc(proc, again) {
			t.Fatalf("printed program parses to another tree:\n%s\nvs\n%s", printed, ir.Print(again))
		}
	})
}
