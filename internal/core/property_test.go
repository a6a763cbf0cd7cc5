package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/minilang"
	"repro/internal/testsvc"
)

// The property: for ANY program the generator emits, the transformed version
// must produce exactly the same returns and output as the original, running
// against the same deterministic query service — and when the transformation
// declines a site, the program must simply remain correct. This exercises
// Rule A/B, the reorder algorithm and the stub machinery across thousands of
// dependence shapes no hand-written test would cover.

// genProgram builds a random single-loop program over a small scalar
// vocabulary. Termination is guaranteed by a dedicated counter; all
// variables are initialized before the loop; arithmetic avoids division by
// variables so no run can fail.
func genProgram(rng *rand.Rand) string {
	vars := []string{"a", "b", "c", "d"}
	var b strings.Builder
	b.WriteString("proc fuzz(n, x) {\n")
	b.WriteString("  query q0 = \"select v from t where k = ?\";\n")
	b.WriteString("  query q1 = \"select w from u where k = ?\";\n")
	for _, v := range vars {
		fmt.Fprintf(&b, "  %s = %d;\n", v, rng.Intn(7))
	}
	b.WriteString("  i = 0;\n  out = 0;\n")
	b.WriteString("  while (i < n) {\n")

	nStmts := 3 + rng.Intn(7)
	incAt := rng.Intn(nStmts + 1)
	queries := 1 + rng.Intn(2)
	queryAt := map[int]bool{}
	for len(queryAt) < queries {
		queryAt[rng.Intn(nStmts)] = true
	}
	expr := func() string {
		pick := func() string {
			switch rng.Intn(4) {
			case 0:
				return vars[rng.Intn(len(vars))]
			case 1:
				return fmt.Sprintf("%d", rng.Intn(9))
			case 2:
				return "i"
			default:
				return "x"
			}
		}
		ops := []string{"+", "-", "*"}
		s := pick()
		for k := rng.Intn(3); k > 0; k-- {
			s += " " + ops[rng.Intn(len(ops))] + " " + pick()
		}
		if rng.Intn(3) == 0 {
			s = "(" + s + ") % 13"
		}
		return s
	}
	guard := func() string {
		if rng.Intn(3) != 0 {
			return ""
		}
		return fmt.Sprintf("g%d", rng.Intn(2))
	}
	// Guard variables recomputed each iteration so Rule B interacts.
	b.WriteString("    g0 = i % 2 == 0;\n")
	b.WriteString("    g1 = i % 3 != 0;\n")
	for s := 0; s < nStmts; s++ {
		if s == incAt {
			b.WriteString("    i = i + 1;\n")
		}
		tgt := vars[rng.Intn(len(vars))]
		g := guard()
		prefix := "    "
		if g != "" {
			prefix = "    " + g + " ? "
		}
		switch {
		case queryAt[s]:
			q := "q0"
			if rng.Intn(2) == 0 {
				q = "q1"
			}
			fmt.Fprintf(&b, "%s%s = execQuery(%s, %s);\n", prefix, tgt, q, expr())
		case rng.Intn(5) == 0:
			fmt.Fprintf(&b, "%sprint(%s);\n", prefix, expr())
		case rng.Intn(6) == 0:
			fmt.Fprintf(&b, "%sout = out + %s;\n", prefix, expr())
		default:
			fmt.Fprintf(&b, "%s%s = %s;\n", prefix, tgt, expr())
		}
	}
	if incAt >= nStmts {
		b.WriteString("    i = i + 1;\n")
	}
	b.WriteString("  }\n")
	fmt.Fprintf(&b, "  return out, %s, i;\n", strings.Join(vars, ", "))
	b.WriteString("}\n")
	return b.String()
}

// checkEquivalence is the quick.Check property.
func checkEquivalence(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	src := genProgram(rng)
	orig, err := minilang.Parse(src)
	if err != nil {
		return fmt.Errorf("seed %d: generator produced unparsable code: %v\n%s", seed, err, src)
	}
	trans, _, err := Transform(orig, Options{})
	if err != nil {
		return fmt.Errorf("seed %d: transform: %v\n%s", seed, err, src)
	}
	args := []interp.Value{int64(5 + rng.Intn(12)), int64(rng.Intn(50))}
	reg := ir.NewRegistry()

	in1 := interp.New(reg, testsvc.NewSync())
	r1, err := in1.Run(orig, args)
	if err != nil {
		return fmt.Errorf("seed %d: original run failed: %v\n%s", seed, err, src)
	}
	svc := testsvc.NewAsync(3)
	defer svc.Close()
	in2 := interp.New(reg, svc)
	r2, err := in2.Run(trans, args)
	if err != nil {
		return fmt.Errorf("seed %d: transformed run failed: %v\noriginal:\n%s\ntransformed:\n%s",
			seed, err, src, ir.Print(trans))
	}
	if len(r1.Returned) != len(r2.Returned) {
		return fmt.Errorf("seed %d: return arity differs", seed)
	}
	for i := range r1.Returned {
		if !interp.Equal(r1.Returned[i], r2.Returned[i]) {
			return fmt.Errorf("seed %d: return %d: %v vs %v\noriginal:\n%s\ntransformed:\n%s",
				seed, i, r1.Returned[i], r2.Returned[i], src, ir.Print(trans))
		}
	}
	if r1.Output != r2.Output {
		return fmt.Errorf("seed %d: output differs\noriginal:\n%s\ntransformed:\n%s\nout1:\n%s\nout2:\n%s",
			seed, src, ir.Print(trans), r1.Output, r2.Output)
	}
	return nil
}

// TestPropertyEquivalence drives checkEquivalence through testing/quick.
// In -short mode the sample shrinks so the suite finishes in seconds; the
// full run keeps the original coverage.
func TestPropertyEquivalence(t *testing.T) {
	count := 0
	prop := func(seed int64) bool {
		count++
		if err := checkEquivalence(seed); err != nil {
			t.Error(err)
			return false
		}
		return true
	}
	maxCount := 300
	if testing.Short() {
		maxCount = 40
	}
	cfg := &quick.Config{
		MaxCount: maxCount,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(int64(r.Intn(1_000_000)))
		},
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
	if count == 0 {
		t.Fatal("property never executed")
	}
}

// TestPropertyEquivalenceFixedSeeds pins a deterministic regression corpus
// (reduced in -short mode).
func TestPropertyEquivalenceFixedSeeds(t *testing.T) {
	n := int64(150)
	if testing.Short() {
		n = 25
	}
	for seed := int64(0); seed < n; seed++ {
		if err := checkEquivalence(seed); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPropertyConservative: programs where every query is on a
// true-dependence cycle must come back untransformed and still correct.
func TestPropertyConservative(t *testing.T) {
	src := `
proc chain(n) {
  query q0 = "select v from t where k = ?";
  v = 1;
  i = 0;
  while (i < n) {
    v = execQuery(q0, v);
    i = i + 1;
  }
  return v;
}`
	orig := minilang.MustParse(src)
	trans, rep, err := Transform(orig, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.TransformedCount() != 0 {
		t.Fatalf("cyclic query must not transform:\n%s", ir.Print(trans))
	}
	// And the clone must still behave identically.
	reg := ir.NewRegistry()
	r1, err := interp.New(reg, testsvc.NewSync()).Run(orig, []interp.Value{int64(6)})
	if err != nil {
		t.Fatal(err)
	}
	svc := exec.NewService(2, testsvc.Runner())
	defer svc.Close()
	r2, err := interp.New(reg, svc).Run(trans, []interp.Value{int64(6)})
	if err != nil {
		t.Fatal(err)
	}
	if !interp.Equal(r1.Returned[0], r2.Returned[0]) {
		t.Fatal("untransformed clone diverged")
	}
}
