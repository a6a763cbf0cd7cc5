package asyncq_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// reachMains are the module's main packages, by directory. Every non-test
// function outside testdata must be linked into one of them, or be listed in
// testdata/testonly.txt with the reason a test needs it.
var reachMains = []string{"cmd/asyncq", "cmd/experiments", "cmd/loadgen", "examples/quickstart", "bench"}

// reachKind matches the kinds a testonly.txt line may carry: an oracle a
// test compares against, a hook a test drives the system through, exported
// surface of the root package, or code another ROADMAP item will serve.
var reachKind = regexp.MustCompile(`^(oracle|hook|api|served-by-item-[1-9][0-9]*)$`)

// TestReachLedger builds every main package with inlining off for the
// module's own packages, reads the functions each binary links with
// `go tool nm`, and checks that the non-test functions no binary links are
// exactly those testdata/testonly.txt lists, each with a kind and a reason.
// deadcode -test passes any function a test reaches; this test keeps that
// set written down.
func TestReachLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every main package")
	}
	dir := t.TempDir()
	args := []string{"build", "-gcflags=repro/...=-l", "-o", dir + string(filepath.Separator)}
	for _, m := range reachMains {
		args = append(args, "./"+m)
	}
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	// Functions each binary links, by import path; a main package's "main."
	// symbols are its own, so they are keyed by its directory.
	linked := map[string]bool{}
	for _, m := range reachMains {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(dir, path.Base(m))).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", m, err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			// "addr type name"; a name may hold spaces (struct type arguments).
			f := strings.Fields(line)
			if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
				continue
			}
			name := foldSymbol(strings.Join(f[2:], " "))
			if fn, ok := strings.CutPrefix(name, "main."); ok {
				name = path.Join("repro", m) + "." + fn
			}
			linked[name] = true
		}
		if !linked[path.Join("repro", m)+".main"] {
			t.Errorf("%s: binary has no main.main; the nm output is not what this test reads", m)
		}
	}

	unlinked := map[string]int{} // function -> body lines
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		importPath := path.Join("repro", filepath.ToSlash(filepath.Dir(p)))
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Name.Name == "isStmt" || fd.Name.Name == "isExpr" {
				continue
			}
			sym := fd.Name.Name
			if fd.Recv != nil {
				sym = recvName(fd.Recv.List[0].Type) + "." + sym
			}
			if fn := importPath + "." + sym; !linked[fn] {
				unlinked[fn] = fset.Position(fd.Body.Rbrace).Line - fset.Position(fd.Body.Lbrace).Line + 1
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	listed, problems := readLedger(t, "testdata/testonly.txt")
	for _, p := range problems {
		t.Error(p)
	}
	var missing, stale []string
	total := 0
	for fn, lines := range unlinked {
		total += lines
		if _, ok := listed[fn]; !ok {
			missing = append(missing, fmt.Sprintf("%s (%d lines)", fn, lines))
		}
	}
	for fn := range listed {
		if _, ok := unlinked[fn]; !ok {
			stale = append(stale, fn)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	for _, fn := range missing {
		t.Errorf("%s: no main package links it and testdata/testonly.txt does not list it; delete it, or list it with a kind and a reason", fn)
	}
	for _, fn := range stale {
		t.Errorf("%s: testdata/testonly.txt lists it, but it is linked or gone; delete the line", fn)
	}
	t.Logf("%d functions that only tests run, %d body lines", len(unlinked), total)
}

// initSuffix is the numbering the linker gives a package's init functions.
var initSuffix = regexp.MustCompile(`\.init\.[0-9]+$`)

// foldSymbol maps a linker symbol to the name its declaration has in the
// source: "pkg.(*T[go.shape.int]).M" becomes "pkg.T.M", the "-fm" method
// value wrapper folds onto the method, and "pkg.init.0" onto "pkg.init".
func foldSymbol(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth > 0, r == '(', r == ')', r == '*':
		default:
			b.WriteRune(r)
		}
	}
	return initSuffix.ReplaceAllString(strings.TrimSuffix(b.String(), "-fm"), ".init")
}

// recvName is the base type name of a method receiver: T for T, *T, T[K]
// and *T[K, V].
func recvName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	case *ast.ParenExpr:
		return recvName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return fmt.Sprintf("%T", e)
}

// readLedger reads the ledger: one "function kind reason..." line per
// function, with blank lines and '#' comments ignored.
func readLedger(t *testing.T, name string) (map[string]string, []string) {
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]string{}
	var problems []string
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		where := fmt.Sprintf("%s:%d", name, i+1)
		switch {
		case len(f) < 2 || !reachKind.MatchString(f[1]):
			problems = append(problems, fmt.Sprintf("%s: want \"function kind reason\" with kind oracle, hook, api or served-by-item-N: %q", where, line))
		case len(f) < 3:
			problems = append(problems, fmt.Sprintf("%s: %s has no reason", where, f[0]))
		case f[1] == "api" && !isRootExported(f[0]):
			problems = append(problems, fmt.Sprintf("%s: %s: kind api is for the root package's exported surface", where, f[0]))
		}
		if _, dup := listed[f[0]]; dup {
			problems = append(problems, fmt.Sprintf("%s: %s is listed twice", where, f[0]))
		}
		listed[f[0]] = line
	}
	return listed, problems
}

// isRootExported reports whether fn ("repro.F" or "repro.T.M") is exported
// surface of the root package.
func isRootExported(fn string) bool {
	name, ok := strings.CutPrefix(fn, "repro.")
	if !ok {
		return false
	}
	for _, part := range strings.Split(name, ".") {
		if !token.IsExported(part) {
			return false
		}
	}
	return true
}
