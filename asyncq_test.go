package asyncq_test

import (
	"errors"
	"strings"
	"testing"

	asyncq "repro"
)

// The paper's Example 2, as in examples/quickstart.
const partCounts = `
proc partCounts(categoryList) {
  query q0 = "select count(partkey) from part where p_category = ?";
  sum = 0;
  while (!empty(categoryList)) {
    category = removeFirst(categoryList);
    partCount = execQuery(q0, category);
    sum = sum + partCount;
  }
  return sum;
}`

// TestLibrarySurface drives the public API end to end: Analyze agrees with
// Transform on what is rewritten, DDG renders the loop's dependence graph,
// and the original and transformed programs return the same value on the
// blocking, pooled and batched services — including when the backend fails.
func TestLibrarySurface(t *testing.T) {
	out, rep, err := asyncq.Transform(partCounts)
	if err != nil {
		t.Fatal(err)
	}
	an, err := asyncq.Analyze(partCounts, asyncq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Transformed() != 1 || an.Opportunities() != rep.Opportunities() || an.Transformed() != rep.Transformed() {
		t.Fatalf("Transform reports %d/%d sites, Analyze %d/%d",
			rep.Transformed(), rep.Opportunities(), an.Transformed(), an.Opportunities())
	}

	dot, err := asyncq.DDG(partCounts, 0)
	if err != nil || !strings.Contains(dot, "partCounts_loop0") {
		t.Fatalf("DDG(0) = %q, %v", dot, err)
	}
	if _, err := asyncq.DDG(partCounts, 1); err == nil {
		t.Fatal("DDG of a loop the program does not have should fail")
	}

	boom := errors.New("backend down")
	run := func(req asyncq.Request) asyncq.Result {
		c, _ := req.Args[0].(int64)
		if c < 0 {
			return asyncq.Fail(boom)
		}
		return asyncq.Ok(c*10 + 7)
	}
	runBatch := func(req asyncq.BatchRequest) asyncq.BatchResult {
		res := asyncq.BatchResult{Values: make([]any, len(req.ArgSets)), Errs: make([]error, len(req.ArgSets))}
		for i, args := range req.ArgSets {
			res.Values[i], res.Errs[i] = run(asyncq.Request{Name: req.Name, SQL: req.SQL, Args: args}).Pair()
		}
		return res
	}
	services := map[string]*asyncq.Service{
		"blocking": asyncq.NewPool(0, run),
		"pool":     asyncq.NewPool(4, run),
		"batched":  asyncq.NewBatchedPool(4, run, runBatch, 4),
	}
	for name, svc := range services {
		defer svc.Close()
		for _, src := range []string{partCounts, out} {
			got, err := asyncq.Run(src, []asyncq.Value{asyncq.List(int64(3), int64(9), int64(40))}, svc)
			if err != nil || len(got.Returned) != 1 || got.Returned[0] != int64(37+97+407) {
				t.Errorf("%s: returned %v, %v", name, got, err)
			}
			if _, err := asyncq.Run(src, []asyncq.Value{asyncq.List(int64(3), int64(-1))}, svc); err == nil || !strings.Contains(err.Error(), boom.Error()) {
				t.Errorf("%s: a failing query surfaced as %v", name, err)
			}
		}
	}

	row := asyncq.Row(map[string]asyncq.Value{"b": int64(2), "a": "x"})
	if got := asyncq.FormatValue(row); !strings.Contains(got, "a=x") || strings.Index(got, "a=x") > strings.Index(got, "b=2") {
		t.Errorf("FormatValue(row) = %q, want fields in name order", got)
	}
	if got := asyncq.FormatValue(asyncq.Rows()); got != "rows()" {
		t.Errorf("FormatValue(Rows()) = %q", got)
	}
}

// TestTransformOnlyNamedQueries: with Options.OnlyQueries the named query is
// submitted asynchronously, the other stays blocking, and both programs
// return the same value.
func TestTransformOnlyNamedQueries(t *testing.T) {
	const src = `
proc twoQueries(items) {
  query qa = "select x from a where k = ?";
  query qb = "select y from b where k = ?";
  total = 0;
  foreach it in items {
    x = execQuery(qa, it);
    y = execQuery(qb, it);
    total = total + x * 100 + y;
  }
  return total;
}`
	out, rep, err := asyncq.TransformWithOptions(src, asyncq.Options{Readable: true, OnlyQueries: []string{"qb"}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Transformed() != 1 || rep.Sites[0].Converted != 1 {
		t.Fatalf("want one site with one conversion, got %+v", rep.Sites)
	}
	if !strings.Contains(out, "submit(qb") || strings.Contains(out, "submit(qa") || !strings.Contains(out, "execQuery(qa") {
		t.Fatalf("want qb submitted and qa blocking:\n%s", out)
	}
	run := func(req asyncq.Request) asyncq.Result {
		k, _ := req.Args[0].(int64)
		return asyncq.Ok(k*int64(len(req.Name)) + int64(req.Name[1]))
	}
	svc := asyncq.NewPool(4, run)
	defer svc.Close()
	args := []asyncq.Value{asyncq.List(int64(1), int64(5), int64(8))}
	want, err := asyncq.Run(src, args, svc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := asyncq.Run(out, args, svc)
	if err != nil || len(got.Returned) != 1 || got.Returned[0] != want.Returned[0] {
		t.Fatalf("transformed returned %v, %v; original %v", got, err, want.Returned)
	}
}
