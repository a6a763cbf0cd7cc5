package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/minilang"
	"repro/internal/testsvc"
)

// Differential coverage for the slot-compiled evaluator: every program the
// property-test generator emits — original AND transformed — must behave
// identically on the tree-walking reference path (Interp.RunTree) and the
// compiled path (Interp.Run): same returns, same output stream, same final
// environment, or the same failure.

// diffOnePath runs proc through both evaluators against fresh deterministic
// services and compares the complete observable outcome.
func diffOnePath(proc *ir.Proc, args []interp.Value, workers int, label, src string) error {
	runVia := func(tree bool) (*interp.Result, error) {
		svc := testsvc.NewAsync(workers) // workers==0 is exactly NewSync
		defer svc.Close()
		in := interp.New(ir.NewRegistry(), svc)
		if tree {
			return in.RunTree(proc, args)
		}
		return in.Run(proc, args)
	}
	rt, errT := runVia(true)
	rc, errC := runVia(false)
	if (errT != nil) != (errC != nil) {
		return fmt.Errorf("%s: error mismatch: tree=%v compiled=%v\n%s", label, errT, errC, src)
	}
	if errT != nil {
		if errT.Error() != errC.Error() {
			return fmt.Errorf("%s: error text mismatch:\ntree:     %v\ncompiled: %v\n%s",
				label, errT, errC, src)
		}
		return nil
	}
	if err := interp.EquivalentResult(rt, rc); err != nil {
		return fmt.Errorf("%s: %w\n%s", label, err, src)
	}
	return nil
}

// checkCompiledEquivalence generates the same random program shapes the
// transformation property tests use and differential-tests both the
// original and the transformed variant.
func checkCompiledEquivalence(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	src := genProgram(rng)
	orig, err := minilang.Parse(src)
	if err != nil {
		return fmt.Errorf("seed %d: unparsable generated program: %v", seed, err)
	}
	trans, _, err := Transform(orig, Options{})
	if err != nil {
		return fmt.Errorf("seed %d: transform: %v", seed, err)
	}
	args := []interp.Value{int64(5 + rng.Intn(12)), int64(rng.Intn(50))}
	if err := diffOnePath(orig, args, 0, fmt.Sprintf("seed %d original", seed), src); err != nil {
		return err
	}
	return diffOnePath(trans, args, 3, fmt.Sprintf("seed %d transformed", seed), ir.Print(trans))
}

func TestCompiledEvaluatorDifferential(t *testing.T) {
	n := int64(250)
	if testing.Short() {
		n = 40
	}
	for seed := int64(0); seed < n; seed++ {
		if err := checkCompiledEquivalence(seed); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCompiledEvaluatorDifferentialErrors pins the compiled path to the
// tree path on programs that fail at runtime, where the equivalence must
// extend to the error text.
func TestCompiledEvaluatorDifferentialErrors(t *testing.T) {
	cases := []string{
		`proc f() { return missing; }`,
		`proc f() { x = 1 / 0; return x; }`,
		`proc f() { x = 5 % 0; return x; }`,
		`proc f() { x = 1 + "s"; return x; }`,
		`proc f() { x = "s" + 1; return x; }`,
		`proc f() { x = nosuchfn(1); return x; }`,
		`proc f() { x = size(1, 2); return x; }`,
		`proc f() { if (3) { x = 1; } return 0; }`,
		`proc f() { while (1) { x = 1; } return 0; }`,
		`proc f(n) { query q = "select v from t where k = ?"; v = execQuery(q, n); return v; }`,
		`proc f() { x = first(list()); return x; }`,
	}
	for _, src := range cases {
		proc, err := minilang.Parse(src)
		if err != nil {
			// Some shapes may be rejected by the parser; those cannot
			// diverge between evaluators.
			continue
		}
		if err := diffOnePath(proc, nil, 0, "error case", src); err != nil {
			t.Error(err)
		}
	}
}
