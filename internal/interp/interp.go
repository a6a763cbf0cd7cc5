package interp

import (
	"fmt"
	"strings"

	"repro/internal/ir"
)

// Builtin implements a registered function. Mutating builtins receive the
// *List bound to the variable and modify it in place.
//
// args are borrowed: they are valid for the call only, and a builtin that
// keeps one copies it (as list, push and concat do). The result slice is
// read before the next builtin call on the same Interp, so a builtin may
// return a slice it reuses (the standard ones return one value through a
// slot on the Interp).
type Builtin func(args []Value) ([]Value, error)

// Interp executes procedures. The zero value is not usable; call New.
type Interp struct {
	Reg   *ir.Registry
	Funcs map[string]Builtin
	// Svc executes queries; required if the program contains query
	// statements.
	Svc QueryService
	// MaxSteps bounds execution (0 = default 50M) so property tests cannot
	// hang on accidentally non-terminating random programs.
	MaxSteps int
	// Out receives print/log output; used for equivalence checks.
	Out strings.Builder

	steps int
	progs map[*ir.Proc]*Program // compiled-program cache for Run
	res   [1]Value              // the result of the last single-value builtin
}

// New builds an interpreter with the standard builtins bound.
func New(reg *ir.Registry, svc QueryService) *Interp {
	in := &Interp{Reg: reg, Funcs: map[string]Builtin{}, Svc: svc}
	in.bindStdlib()
	return in
}

// Bind registers (or replaces) a builtin implementation.
func (in *Interp) Bind(name string, fn Builtin) { in.Funcs[name] = fn }

// Result is the outcome of running a procedure.
type Result struct {
	Returned []Value
	Env      map[string]Value // final top-level environment
	Output   string           // accumulated print/log output
}

// Run executes proc with the given positional arguments through the
// slot-compiled fast path (see compile.go). Programs are compiled once per
// Interp and cached by proc identity, so repeated runs of the same
// procedure pay compilation only once. Because the cache is keyed by
// identity, a proc must not be mutated in place between Runs on the same
// Interp (clone first, as the transformation passes do) — the cached
// program would keep executing the pre-mutation code.
func (in *Interp) Run(proc *ir.Proc, args []Value) (*Result, error) {
	prog, ok := in.progs[proc]
	if !ok {
		prog = Compile(proc)
		if in.progs == nil {
			in.progs = make(map[*ir.Proc]*Program)
		} else if len(in.progs) >= progCacheMax {
			// Bounded like asyncq's source cache: a long-lived Interp fed
			// freshly parsed procs must not grow memory without limit.
			in.progs = make(map[*ir.Proc]*Program)
		}
		in.progs[proc] = prog
	}
	return in.RunProgram(prog, args)
}

// progCacheMax bounds the per-Interp compiled-program cache.
const progCacheMax = 256

// RunTree executes proc on the original tree-walking evaluator. It is the
// reference semantics the compiled path is differentially tested against
// (internal/core and internal/experiments); production callers use Run.
func (in *Interp) RunTree(proc *ir.Proc, args []Value) (*Result, error) {
	if len(args) != len(proc.Params) {
		return nil, fmt.Errorf("interp: %s expects %d args, got %d",
			proc.Name, len(proc.Params), len(args))
	}
	env := map[string]Value{}
	for i, p := range proc.Params {
		env[p] = copyValue(args[i])
	}
	in.steps = 0
	in.Out.Reset()
	queries := map[string]string{}
	for _, q := range proc.Queries {
		queries[q.Name] = q.SQL
	}
	ret, err := in.execBlock(proc.Body, env, queries)
	if err != nil {
		return nil, fmt.Errorf("interp: %s: %w", proc.Name, err)
	}
	return &Result{Returned: ret, Env: env, Output: in.Out.String()}, nil
}

func (in *Interp) step() error {
	in.steps++
	limit := in.MaxSteps
	if limit == 0 {
		limit = 50_000_000
	}
	if in.steps > limit {
		return fmt.Errorf("step limit exceeded (%d)", limit)
	}
	return nil
}

// execBlock runs a block; a non-nil first return means a Return statement
// executed.
func (in *Interp) execBlock(b *ir.Block, env map[string]Value, queries map[string]string) ([]Value, error) {
	if b == nil {
		return nil, nil
	}
	for _, s := range b.Stmts {
		ret, err := in.execStmt(s, env, queries)
		if err != nil {
			return nil, err
		}
		if ret != nil {
			return ret, nil
		}
	}
	return nil, nil
}

func (in *Interp) execStmt(s ir.Stmt, env map[string]Value, queries map[string]string) ([]Value, error) {
	if err := in.step(); err != nil {
		return nil, err
	}
	if g := s.GetGuard(); g != nil {
		v, ok := env[g.Var]
		if !ok {
			return nil, fmt.Errorf("guard variable %q undefined", g.Var)
		}
		b, err := truthy(v)
		if err != nil {
			return nil, fmt.Errorf("guard %s: %w", g.Var, err)
		}
		if b == g.Neg { // guard not satisfied
			return nil, nil
		}
	}
	switch x := s.(type) {
	case *ir.Assign:
		vals, err := in.evalMulti(x.Rhs, env, len(x.Lhs))
		if err != nil {
			return nil, err
		}
		for i, l := range x.Lhs {
			env[l] = copyValue(vals[i])
		}
		return nil, nil
	case *ir.ExecQuery:
		return nil, in.query(x.Query, x.Args, x.Lhs, false, env, queries)
	case *ir.Submit:
		return nil, in.query(x.Query, x.Args, x.Lhs, true, env, queries)
	case *ir.Fetch:
		hv, err := in.eval(x.Handle, env)
		if err != nil {
			return nil, err
		}
		h, ok := hv.(Handle)
		if !ok {
			return nil, fmt.Errorf("fetch of non-handle %s", TypeName(hv))
		}
		v, err := h.Fetch()
		if err != nil {
			return nil, fmt.Errorf("fetch: %w", err)
		}
		if x.Lhs != "" {
			env[x.Lhs] = v
		}
		return nil, nil
	case *ir.CallStmt:
		_, err := in.eval(x.Call, env)
		return nil, err
	case *ir.Return:
		vals, err := in.evalAll(x.Vals, env)
		if err != nil {
			return nil, err
		}
		if vals == nil {
			vals = []Value{}
		}
		return vals, nil
	case *ir.DeclTable:
		env[x.Name] = &Table{}
		return nil, nil
	case *ir.NewRecord:
		env[x.Name] = NewRecord()
		return nil, nil
	case *ir.SetField:
		rec, err := in.record(x.Record, env)
		if err != nil {
			return nil, err
		}
		v, err := in.eval(x.Val, env)
		if err != nil {
			return nil, err
		}
		rec.Set(x.Field, v)
		return nil, nil
	case *ir.AppendRecord:
		tbl, err := in.table(x.Table, env)
		if err != nil {
			return nil, err
		}
		rec, err := in.record(x.Record, env)
		if err != nil {
			return nil, err
		}
		tbl.Append(rec)
		return nil, nil
	case *ir.LoadField:
		rec, err := in.record(x.Record, env)
		if err != nil {
			return nil, err
		}
		if v, ok := rec.Get(x.Field); ok {
			env[x.Var] = copyValue(v)
		}
		return nil, nil
	case *ir.CopyField:
		src, err := in.record(x.SrcRec, env)
		if err != nil {
			return nil, err
		}
		dst, err := in.record(x.DstRec, env)
		if err != nil {
			return nil, err
		}
		if v, ok := src.Get(x.SrcField); ok {
			dst.Set(x.DstField, v)
		}
		return nil, nil
	case *ir.While:
		for {
			cv, err := in.eval(x.Cond, env)
			if err != nil {
				return nil, err
			}
			b, err := truthy(cv)
			if err != nil {
				return nil, fmt.Errorf("while condition: %w", err)
			}
			if !b {
				return nil, nil
			}
			if ret, err := in.execBlock(x.Body, env, queries); err != nil || ret != nil {
				return ret, err
			}
			if err := in.step(); err != nil {
				return nil, err
			}
		}
	case *ir.If:
		cv, err := in.eval(x.Cond, env)
		if err != nil {
			return nil, err
		}
		b, err := truthy(cv)
		if err != nil {
			return nil, fmt.Errorf("if condition: %w", err)
		}
		if b {
			return in.execBlock(x.Then, env, queries)
		}
		return in.execBlock(x.Else, env, queries)
	case *ir.ForEach:
		cv, err := in.eval(x.Coll, env)
		if err != nil {
			return nil, err
		}
		items, err := iterable(cv)
		if err != nil {
			return nil, fmt.Errorf("foreach: %w", err)
		}
		for _, it := range items {
			env[x.Var] = copyValue(it)
			if ret, err := in.execBlock(x.Body, env, queries); err != nil || ret != nil {
				return ret, err
			}
		}
		return nil, nil
	case *ir.Scan:
		tbl, err := in.table(x.Table, env)
		if err != nil {
			return nil, err
		}
		for _, rec := range tbl.Records {
			env[x.Record] = rec
			if ret, err := in.execBlock(x.Body, env, queries); err != nil || ret != nil {
				return ret, err
			}
		}
		return nil, nil
	}
	return nil, fmt.Errorf("unknown statement %T", s)
}

// query runs an execQuery, or a submit, and binds its result to lhs.
func (in *Interp) query(q string, argExprs []ir.Expr, lhs string, submit bool, env map[string]Value, queries map[string]string) error {
	if in.Svc == nil {
		return fmt.Errorf("no query service bound")
	}
	args, err := in.evalAll(argExprs, env)
	if err != nil {
		return err
	}
	sql, ok := queries[q]
	if !ok {
		return fmt.Errorf("query %q not declared", q)
	}
	var v Value
	verb := "execQuery"
	if submit {
		verb = "submit"
		v, err = in.Svc.Submit(q, sql, args)
	} else {
		v, err = in.Svc.Exec(q, sql, args)
	}
	if err != nil {
		return fmt.Errorf("%s %s: %w", verb, q, err)
	}
	if lhs != "" {
		env[lhs] = v
	}
	return nil
}

// iterable snapshots a list or rows value for foreach.
func iterable(v Value) ([]Value, error) {
	switch x := v.(type) {
	case *List:
		return append([]Value(nil), x.Items...), nil
	case Rows:
		out := make([]Value, len(x))
		for i, r := range x {
			out[i] = r
		}
		return out, nil
	}
	return nil, fmt.Errorf("cannot iterate %s", TypeName(v))
}

func (in *Interp) record(name string, env map[string]Value) (*Record, error) {
	v, set := env[name]
	if r, ok := v.(*Record); ok {
		return r, nil
	}
	return nil, varErr(v, set, "record", name)
}

func (in *Interp) table(name string, env map[string]Value) (*Table, error) {
	v, set := env[name]
	if t, ok := v.(*Table); ok {
		return t, nil
	}
	return nil, varErr(v, set, "table", name)
}

// varErr is both evaluators' error for a variable, named name and holding v
// when set, that is not the kind of value a statement needs.
func varErr(v Value, set bool, kind, name string) error {
	if !set {
		return fmt.Errorf("%s %q undefined", kind, name)
	}
	return fmt.Errorf("%q is %s, not %s", name, TypeName(v), kind)
}

// evalMulti evaluates an rhs that must yield n values (multi-assignment from
// a call, or a single value).
func (in *Interp) evalMulti(e ir.Expr, env map[string]Value, n int) ([]Value, error) {
	if c, ok := e.(*ir.Call); ok && n != 1 {
		return in.call(c, env, n)
	}
	v, err := in.eval(e, env)
	if err != nil {
		return nil, err
	}
	if n != 1 {
		return nil, fmt.Errorf("expression yields 1 value, want %d", n)
	}
	return []Value{v}, nil
}

func (in *Interp) evalAll(es []ir.Expr, env map[string]Value) ([]Value, error) {
	var out []Value
	for _, e := range es {
		v, err := in.eval(e, env)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func (in *Interp) eval(e ir.Expr, env map[string]Value) (Value, error) {
	switch x := e.(type) {
	case *ir.Var:
		v, ok := env[x.Name]
		if !ok {
			return nil, fmt.Errorf("variable %q undefined", x.Name)
		}
		return v, nil
	case *ir.Lit:
		return x.V, nil
	case *ir.Un:
		v, err := in.eval(x.X, env)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "!":
			b, err := truthy(v)
			if err != nil {
				return nil, err
			}
			return !b, nil
		case "-":
			i, ok := v.(int64)
			if !ok {
				return nil, fmt.Errorf("unary - on %s", TypeName(v))
			}
			return -i, nil
		}
		return nil, fmt.Errorf("unknown unary op %q", x.Op)
	case *ir.Bin:
		return in.evalBin(x, env)
	case *ir.Call:
		vals, err := in.call(x, env, -1)
		if err != nil {
			return nil, err
		}
		if len(vals) == 0 {
			return nil, nil
		}
		return vals[0], nil
	}
	return nil, fmt.Errorf("unknown expression %T", e)
}

func (in *Interp) evalBin(x *ir.Bin, env map[string]Value) (Value, error) {
	// Short-circuit booleans.
	if x.Op == "&&" || x.Op == "||" {
		l, err := in.eval(x.L, env)
		if err != nil {
			return nil, err
		}
		lb, err := truthy(l)
		if err != nil {
			return nil, err
		}
		if x.Op == "&&" && !lb {
			return false, nil
		}
		if x.Op == "||" && lb {
			return true, nil
		}
		r, err := in.eval(x.R, env)
		if err != nil {
			return nil, err
		}
		rb, err := truthy(r)
		if err != nil {
			return nil, err
		}
		return rb, nil
	}
	l, err := in.eval(x.L, env)
	if err != nil {
		return nil, err
	}
	r, err := in.eval(x.R, env)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case "==":
		return Equal(l, r), nil
	case "!=":
		return !Equal(l, r), nil
	}
	// String concatenation.
	if x.Op == "+" {
		if ls, ok := l.(string); ok {
			rs, ok := r.(string)
			if !ok {
				return nil, fmt.Errorf("+ on string and %s", TypeName(r))
			}
			return ls + rs, nil
		}
	}
	li, lok := l.(int64)
	ri, rok := r.(int64)
	if !lok || !rok {
		// Allow string comparisons.
		if ls, ok := l.(string); ok {
			if rs, ok := r.(string); ok {
				switch x.Op {
				case "<":
					return ls < rs, nil
				case "<=":
					return ls <= rs, nil
				case ">":
					return ls > rs, nil
				case ">=":
					return ls >= rs, nil
				}
			}
		}
		return nil, fmt.Errorf("%s on %s and %s", x.Op, TypeName(l), TypeName(r))
	}
	switch x.Op {
	case "+":
		return li + ri, nil
	case "-":
		return li - ri, nil
	case "*":
		return li * ri, nil
	case "/":
		if ri == 0 {
			return nil, fmt.Errorf("division by zero")
		}
		return li / ri, nil
	case "%":
		if ri == 0 {
			return nil, fmt.Errorf("modulo by zero")
		}
		return li % ri, nil
	case "<":
		return li < ri, nil
	case "<=":
		return li <= ri, nil
	case ">":
		return li > ri, nil
	case ">=":
		return li >= ri, nil
	}
	return nil, fmt.Errorf("unknown binary op %q", x.Op)
}

func (in *Interp) call(c *ir.Call, env map[string]Value, want int) ([]Value, error) {
	fn, ok := in.Funcs[c.Fn]
	if !ok {
		return nil, fmt.Errorf("function %q not implemented", c.Fn)
	}
	if sig := in.Reg.Lookup(c.Fn); sig != nil && sig.NArgs >= 0 && sig.NArgs != len(c.Args) {
		return nil, fmt.Errorf("%s expects %d args, got %d", c.Fn, sig.NArgs, len(c.Args))
	}
	args, err := in.evalAll(c.Args, env)
	if err != nil {
		return nil, err
	}
	out, err := fn(args)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.Fn, err)
	}
	if want >= 0 && len(out) != want {
		return nil, fmt.Errorf("%s returned %d values, want %d", c.Fn, len(out), want)
	}
	return out, nil
}
