package main

import (
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/minilang"
	"repro/internal/testsvc"
)

// TestDefaultArgsByUse: -run's arguments follow how the program uses each
// parameter, not its position, so the paper's Example 2 (a single list
// parameter) and a loop bounded by an int parameter both run.
func TestDefaultArgsByUse(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		lists     []bool
	}{
		{"example2", `
proc partCounts(categoryList) {
  query q0 = "select count(partkey) from part where p_category = ?";
  sum = 0;
  while (!empty(categoryList)) {
    category = removeFirst(categoryList);
    partCount = execQuery(q0, category);
    sum = sum + partCount;
  }
  return sum;
}`, []bool{true}},
		{"foreach-and-bound", `
proc f(items, n) {
  query q = "select count(partkey) from part where p_category = ?";
  total = 0;
  foreach it in items {
    i = 0;
    while (i < n) {
      c = execQuery(q, it);
      total = total + c;
      i = i + 1;
    }
  }
  return total;
}`, []bool{true, false}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			proc, err := minilang.Parse(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			args := defaultArgs(proc)
			for i, want := range tc.lists {
				if _, isList := args[i].(*interp.List); isList != want {
					t.Errorf("parameter %s: got %s, want a list: %v", proc.Params[i], interp.Format(args[i]), want)
				}
			}
			svc := testsvc.NewSync()
			defer svc.Close()
			if _, err := interp.New(ir.NewRegistry(), svc).Run(proc, args); err != nil {
				t.Fatalf("run with default arguments: %v", err)
			}
		})
	}
}
