package interp

import (
	"fmt"

	"repro/internal/ir"
)

// This file lowers ir.Proc into a slot-addressed executable form: variable
// names resolved to integer frame slots (ir.BuildSlots), guards precompiled
// to (slot, negation) pairs, prepared-query names resolved to indices,
// literals interned, binary operators dispatched on a small opcode instead
// of a string. Each statement and expression compiles to a closure over a
// *machine; running a program is then a chain of direct calls over a flat
// []Value frame, with none of the per-statement map traffic of the
// tree-walking evaluator in interp.go (kept as RunTree for differential
// testing).
//
// Observable behaviour — outputs, return values, final environments, error
// messages, step accounting — matches the tree evaluator exactly; the
// differential tests in internal/core and internal/experiments assert this
// over the property-test corpus and every evaluation app. One deliberate
// scope limit: builtins resolve once per call site per run, so rebinding a
// function with Interp.Bind *while a program is running* keeps the old
// binding until the run ends (rebinding between runs behaves identically
// on both paths).

// Program is a compiled procedure. Compile once, run many times (from any
// number of Interps; a Program is immutable after compilation and safe for
// concurrent RunProgram calls on distinct Interps).
type Program struct {
	proc       *ir.Proc
	slots      *ir.SlotTable
	paramSlots []int
	queries    []queryDecl
	calls      []callSite
	body       block
}

// Proc returns the procedure this program was compiled from.
func (p *Program) Proc() *ir.Proc { return p.proc }

type queryDecl struct{ name, sql string }

// callSite records one static function call for lazy per-run resolution.
type callSite struct {
	fn    string
	nargs int
}

type (
	stmtFn func(m *machine) (signal, error)
	exprFn func(m *machine) (Value, error)
	block  []stmtFn
)

func (b block) exec(m *machine) (signal, error) {
	for _, s := range b {
		sig, err := s(m)
		if err != nil || sig == sigReturn {
			return sig, err
		}
	}
	return sigNext, nil
}

// Compile lowers proc to its slot-addressed form. Compilation never fails:
// conditions the tree evaluator reports at execution time (unknown
// functions, undeclared queries, arity mismatches) compile to closures that
// produce the identical error when — and only when — they execute.
func Compile(proc *ir.Proc) *Program {
	slots := ir.BuildSlots(proc)
	p := &Program{proc: proc, slots: slots}
	c := &compiler{prog: p, queryIdx: make(map[string]int)}
	for _, prm := range proc.Params {
		s, _ := slots.Slot(prm)
		p.paramSlots = append(p.paramSlots, s)
	}
	// Later declarations of the same query name win, matching the map the
	// tree evaluator builds in RunTree.
	for _, q := range proc.Queries {
		if i, ok := c.queryIdx[q.Name]; ok {
			p.queries[i] = queryDecl{q.Name, q.SQL}
		} else {
			c.queryIdx[q.Name] = len(p.queries)
			p.queries = append(p.queries, queryDecl{q.Name, q.SQL})
		}
	}
	p.body = c.block(proc.Body)
	return p
}

type compiler struct {
	prog     *Program
	queryIdx map[string]int
}

// slot resolves a name collected by ir.BuildSlots; by construction every
// name the compiler meets is in the table.
func (c *compiler) slot(name string) int {
	i, ok := c.prog.slots.Slot(name)
	if !ok {
		panic(fmt.Sprintf("interp: name %q missing from slot table", name))
	}
	return i
}

func (c *compiler) block(b *ir.Block) block {
	if b == nil {
		return nil
	}
	out := make(block, len(b.Stmts))
	for i, s := range b.Stmts {
		out[i] = c.stmt(s)
	}
	return out
}

// stmt compiles one statement, wrapping the body with the step check and,
// when present, the precompiled guard.
func (c *compiler) stmt(s ir.Stmt) stmtFn {
	inner := c.stmtBody(s)
	if g := s.GetGuard(); g != nil {
		slot := c.slot(g.Var)
		name, neg := g.Var, g.Neg
		return func(m *machine) (signal, error) {
			if err := m.step(); err != nil {
				return sigNext, err
			}
			v := m.frame[slot]
			if v == unsetVal {
				return sigNext, fmt.Errorf("guard variable %q undefined", name)
			}
			b, err := truthy(v)
			if err != nil {
				return sigNext, fmt.Errorf("guard %s: %w", name, err)
			}
			if b == neg { // guard not satisfied
				return sigNext, nil
			}
			return inner(m)
		}
	}
	return func(m *machine) (signal, error) {
		if err := m.step(); err != nil {
			return sigNext, err
		}
		return inner(m)
	}
}

func (c *compiler) stmtBody(s ir.Stmt) stmtFn {
	switch x := s.(type) {
	case *ir.Assign:
		return c.assign(x)

	case *ir.ExecQuery:
		return c.query(x.Query, x.Args, x.Lhs, false)

	case *ir.Submit:
		return c.query(x.Query, x.Args, x.Lhs, true)

	case *ir.Fetch:
		hx := c.expr(x.Handle)
		lhs := c.optSlot(x.Lhs)
		return func(m *machine) (signal, error) {
			hv, err := hx(m)
			if err != nil {
				return sigNext, err
			}
			h, ok := hv.(Handle)
			if !ok {
				return sigNext, fmt.Errorf("fetch of non-handle %s", TypeName(hv))
			}
			v, err := h.Fetch()
			if err != nil {
				return sigNext, fmt.Errorf("fetch: %w", err)
			}
			if lhs >= 0 {
				m.frame[lhs] = v
			}
			return sigNext, nil
		}

	case *ir.CallStmt:
		call := c.call(x.Call, -1)
		return func(m *machine) (signal, error) {
			_, err := call(m)
			return sigNext, err
		}

	case *ir.Return:
		vals := c.exprs(x.Vals)
		return func(m *machine) (signal, error) {
			out := make([]Value, len(vals))
			if err := m.evalInto(out, vals); err != nil {
				return sigNext, err
			}
			m.ret = out
			return sigReturn, nil
		}

	case *ir.DeclTable:
		slot := c.slot(x.Name)
		return func(m *machine) (signal, error) {
			m.frame[slot] = &Table{}
			return sigNext, nil
		}

	case *ir.NewRecord:
		slot := c.slot(x.Name)
		return func(m *machine) (signal, error) {
			m.frame[slot] = m.newRecord()
			return sigNext, nil
		}

	case *ir.SetField:
		rec, recName := c.slot(x.Record), x.Record
		field := x.Field
		val := c.expr(x.Val)
		return func(m *machine) (signal, error) {
			r, err := m.recordAt(rec, recName)
			if err != nil {
				return sigNext, err
			}
			v, err := val(m)
			if err != nil {
				return sigNext, err
			}
			r.Set(field, v)
			return sigNext, nil
		}

	case *ir.AppendRecord:
		tbl, tblName := c.slot(x.Table), x.Table
		rec, recName := c.slot(x.Record), x.Record
		return func(m *machine) (signal, error) {
			t, err := m.tableAt(tbl, tblName)
			if err != nil {
				return sigNext, err
			}
			r, err := m.recordAt(rec, recName)
			if err != nil {
				return sigNext, err
			}
			t.Append(r)
			return sigNext, nil
		}

	case *ir.LoadField:
		rec, recName := c.slot(x.Record), x.Record
		dst := c.slot(x.Var)
		field := x.Field
		return func(m *machine) (signal, error) {
			r, err := m.recordAt(rec, recName)
			if err != nil {
				return sigNext, err
			}
			if v, ok := r.Get(field); ok {
				m.frame[dst] = copyValue(v)
			}
			return sigNext, nil
		}

	case *ir.CopyField:
		src, srcName := c.slot(x.SrcRec), x.SrcRec
		dst, dstName := c.slot(x.DstRec), x.DstRec
		srcField, dstField := x.SrcField, x.DstField
		return func(m *machine) (signal, error) {
			sr, err := m.recordAt(src, srcName)
			if err != nil {
				return sigNext, err
			}
			dr, err := m.recordAt(dst, dstName)
			if err != nil {
				return sigNext, err
			}
			if v, ok := sr.Get(srcField); ok {
				dr.Set(dstField, v)
			}
			return sigNext, nil
		}

	case *ir.While:
		cond := c.expr(x.Cond)
		body := c.block(x.Body)
		return func(m *machine) (signal, error) {
			for {
				cv, err := cond(m)
				if err != nil {
					return sigNext, err
				}
				b, err := truthy(cv)
				if err != nil {
					return sigNext, fmt.Errorf("while condition: %w", err)
				}
				if !b {
					return sigNext, nil
				}
				if sig, err := body.exec(m); err != nil || sig == sigReturn {
					return sig, err
				}
				if err := m.step(); err != nil {
					return sigNext, err
				}
			}
		}

	case *ir.If:
		cond := c.expr(x.Cond)
		then := c.block(x.Then)
		els := c.block(x.Else)
		return func(m *machine) (signal, error) {
			cv, err := cond(m)
			if err != nil {
				return sigNext, err
			}
			b, err := truthy(cv)
			if err != nil {
				return sigNext, fmt.Errorf("if condition: %w", err)
			}
			if b {
				return then.exec(m)
			}
			return els.exec(m)
		}

	case *ir.ForEach:
		coll := c.expr(x.Coll)
		slot := c.slot(x.Var)
		body := c.block(x.Body)
		return func(m *machine) (signal, error) {
			cv, err := coll(m)
			if err != nil {
				return sigNext, err
			}
			items, err := iterable(cv)
			if err != nil {
				return sigNext, fmt.Errorf("foreach: %w", err)
			}
			for _, it := range items {
				m.frame[slot] = copyValue(it)
				if sig, err := body.exec(m); err != nil || sig == sigReturn {
					return sig, err
				}
			}
			return sigNext, nil
		}

	case *ir.Scan:
		tbl, tblName := c.slot(x.Table), x.Table
		rec := c.slot(x.Record)
		body := c.block(x.Body)
		return func(m *machine) (signal, error) {
			t, err := m.tableAt(tbl, tblName)
			if err != nil {
				return sigNext, err
			}
			for _, r := range t.Records {
				m.frame[rec] = r
				if sig, err := body.exec(m); err != nil || sig == sigReturn {
					return sig, err
				}
			}
			return sigNext, nil
		}
	}

	return func(m *machine) (signal, error) {
		return sigNext, fmt.Errorf("unknown statement %T", s)
	}
}

// query compiles an execQuery, or a submit: the arguments are carved from
// the run's slab (see machine.carve) and the result bound to lhs.
func (c *compiler) query(qname string, argExprs []ir.Expr, lhsName string, submit bool) stmtFn {
	args := c.exprs(argExprs)
	qi, qok := c.queryIdx[qname]
	lhs := c.optSlot(lhsName)
	verb := "execQuery"
	if submit {
		verb = "submit"
	}
	return func(m *machine) (signal, error) {
		if m.in.Svc == nil {
			return sigNext, fmt.Errorf("no query service bound")
		}
		av, err := m.carve(args)
		if err != nil {
			return sigNext, err
		}
		if !qok {
			return sigNext, fmt.Errorf("query %q not declared", qname)
		}
		q := &m.prog.queries[qi]
		var v Value
		if submit {
			v, err = m.in.Svc.Submit(q.name, q.sql, av)
		} else {
			v, err = m.in.Svc.Exec(q.name, q.sql, av)
		}
		if err != nil {
			return sigNext, fmt.Errorf("%s %s: %w", verb, qname, err)
		}
		if lhs >= 0 {
			m.frame[lhs] = v
		}
		return sigNext, nil
	}
}

// optSlot resolves a possibly-empty assignment target (-1 = discard).
func (c *compiler) optSlot(name string) int {
	if name == "" {
		return -1
	}
	return c.slot(name)
}

func (c *compiler) assign(x *ir.Assign) stmtFn {
	if len(x.Lhs) == 1 {
		slot := c.slot(x.Lhs[0])
		rhs := c.expr(x.Rhs)
		return func(m *machine) (signal, error) {
			v, err := rhs(m)
			if err != nil {
				return sigNext, err
			}
			m.frame[slot] = copyValue(v)
			return sigNext, nil
		}
	}
	if call, ok := x.Rhs.(*ir.Call); ok {
		fn := c.call(call, len(x.Lhs))
		slots := make([]int, len(x.Lhs))
		for i, l := range x.Lhs {
			slots[i] = c.slot(l)
		}
		return func(m *machine) (signal, error) {
			vals, err := fn(m)
			if err != nil {
				return sigNext, err
			}
			for i, sl := range slots {
				m.frame[sl] = copyValue(vals[i])
			}
			return sigNext, nil
		}
	}
	// Multi-assignment from a non-call expression: the tree evaluator
	// evaluates the expression (for its errors) and then rejects it; keep
	// the same lazy failure.
	rhs := c.expr(x.Rhs)
	n := len(x.Lhs)
	return func(m *machine) (signal, error) {
		if _, err := rhs(m); err != nil {
			return sigNext, err
		}
		return sigNext, fmt.Errorf("expression yields 1 value, want %d", n)
	}
}

// call compiles a function invocation. want is the required result count
// (-1 = any). Builtins resolve lazily per run through machine.calls so
// Interp.Bind between runs behaves exactly as on the tree path.
func (c *compiler) call(x *ir.Call, want int) func(m *machine) ([]Value, error) {
	idx := len(c.prog.calls)
	c.prog.calls = append(c.prog.calls, callSite{fn: x.Fn, nargs: len(x.Args)})
	args := c.exprs(x.Args)
	name := x.Fn
	return func(m *machine) ([]Value, error) {
		f := m.calls[idx]
		if f == nil {
			var err error
			if f, err = m.resolve(idx); err != nil {
				return nil, err
			}
		}
		// Arguments go on the machine's stack above base and are borrowed
		// by f: cleared and popped when it returns, so nested calls compose.
		base := len(m.stack)
		defer m.pop(base)
		for _, e := range args {
			v, err := e(m)
			if err != nil {
				return nil, err
			}
			m.stack = append(m.stack, v)
		}
		n := len(m.stack)
		out, err := f(m.stack[base:n:n])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if want >= 0 && len(out) != want {
			return nil, fmt.Errorf("%s returned %d values, want %d", name, len(out), want)
		}
		return out, nil
	}
}

func (c *compiler) exprs(es []ir.Expr) []exprFn {
	if len(es) == 0 {
		return nil
	}
	out := make([]exprFn, len(es))
	for i, e := range es {
		out[i] = c.expr(e)
	}
	return out
}

func (c *compiler) expr(e ir.Expr) exprFn {
	switch x := e.(type) {
	case *ir.Var:
		slot := c.slot(x.Name)
		name := x.Name
		return func(m *machine) (Value, error) {
			v := m.frame[slot]
			if v == unsetVal {
				return nil, fmt.Errorf("variable %q undefined", name)
			}
			return v, nil
		}

	case *ir.Lit:
		v := x.V // interned: boxed once at compile time
		if i, ok := v.(int64); ok {
			v = BoxInt(i)
		}
		return func(*machine) (Value, error) { return v, nil }

	case *ir.Un:
		operand := c.expr(x.X)
		switch x.Op {
		case "!":
			return func(m *machine) (Value, error) {
				v, err := operand(m)
				if err != nil {
					return nil, err
				}
				b, err := truthy(v)
				if err != nil {
					return nil, err
				}
				return !b, nil
			}
		case "-":
			return func(m *machine) (Value, error) {
				v, err := operand(m)
				if err != nil {
					return nil, err
				}
				i, ok := v.(int64)
				if !ok {
					return nil, fmt.Errorf("unary - on %s", TypeName(v))
				}
				return BoxInt(-i), nil
			}
		}
		op := x.Op
		return func(m *machine) (Value, error) {
			if _, err := operand(m); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("unknown unary op %q", op)
		}

	case *ir.Bin:
		return c.bin(x)

	case *ir.Call:
		call := c.call(x, -1)
		return func(m *machine) (Value, error) {
			vals, err := call(m)
			if err != nil {
				return nil, err
			}
			if len(vals) == 0 {
				return nil, nil
			}
			return vals[0], nil
		}
	}

	return func(*machine) (Value, error) {
		return nil, fmt.Errorf("unknown expression %T", e)
	}
}

// Binary opcodes: the operator string is resolved once at compile time.
type binOp uint8

const (
	opBad binOp = iota
	opAdd
	opSub
	opMul
	opDiv
	opMod
	opLT
	opLE
	opGT
	opGE
)

var binOps = map[string]binOp{
	"+": opAdd, "-": opSub, "*": opMul, "/": opDiv, "%": opMod,
	"<": opLT, "<=": opLE, ">": opGT, ">=": opGE,
}

func (c *compiler) bin(x *ir.Bin) exprFn {
	l, r := c.expr(x.L), c.expr(x.R)
	switch x.Op {
	case "&&", "||":
		short := x.Op == "||" // the left value that decides the result
		return func(m *machine) (Value, error) {
			lv, err := l(m)
			if err != nil {
				return nil, err
			}
			lb, err := truthy(lv)
			if err != nil {
				return nil, err
			}
			if lb == short {
				return short, nil
			}
			rv, err := r(m)
			if err != nil {
				return nil, err
			}
			rb, err := truthy(rv)
			if err != nil {
				return nil, err
			}
			return rb, nil
		}
	case "==", "!=":
		neg := x.Op == "!="
		return func(m *machine) (Value, error) {
			lv, err := l(m)
			if err != nil {
				return nil, err
			}
			rv, err := r(m)
			if err != nil {
				return nil, err
			}
			return Equal(lv, rv) != neg, nil
		}
	}

	code := binOps[x.Op] // opBad for unknown operators
	opStr := x.Op
	return func(m *machine) (Value, error) {
		lv, err := l(m)
		if err != nil {
			return nil, err
		}
		rv, err := r(m)
		if err != nil {
			return nil, err
		}
		return applyBin(code, opStr, lv, rv)
	}
}

// applyBin mirrors the operand typing rules of the tree evaluator's evalBin:
// "+" concatenates strings, the comparisons order strings, everything else
// is int64 arithmetic.
func applyBin(code binOp, opStr string, lv, rv Value) (Value, error) {
	if code == opAdd {
		if ls, ok := lv.(string); ok {
			rs, ok := rv.(string)
			if !ok {
				return nil, fmt.Errorf("+ on string and %s", TypeName(rv))
			}
			return ls + rs, nil
		}
	}
	li, lok := lv.(int64)
	ri, rok := rv.(int64)
	if !lok || !rok {
		if ls, ok := lv.(string); ok {
			if rs, ok := rv.(string); ok {
				switch code {
				case opLT:
					return ls < rs, nil
				case opLE:
					return ls <= rs, nil
				case opGT:
					return ls > rs, nil
				case opGE:
					return ls >= rs, nil
				}
			}
		}
		return nil, fmt.Errorf("%s on %s and %s", opStr, TypeName(lv), TypeName(rv))
	}
	switch code {
	case opAdd:
		return BoxInt(li + ri), nil
	case opSub:
		return BoxInt(li - ri), nil
	case opMul:
		return BoxInt(li * ri), nil
	case opDiv:
		if ri == 0 {
			return nil, fmt.Errorf("division by zero")
		}
		return BoxInt(li / ri), nil
	case opMod:
		if ri == 0 {
			return nil, fmt.Errorf("modulo by zero")
		}
		return BoxInt(li % ri), nil
	case opLT:
		return li < ri, nil
	case opLE:
		return li <= ri, nil
	case opGT:
		return li > ri, nil
	case opGE:
		return li >= ri, nil
	}
	return nil, fmt.Errorf("unknown binary op %q", opStr)
}

// RunProgram executes a compiled program with the given positional
// arguments. It is the fast path behind Run; callers that compile once and
// run many times (asyncq.Run's cache, the experiments harness) use it
// directly.
func (in *Interp) RunProgram(p *Program, args []Value) (*Result, error) {
	proc := p.proc
	if len(args) != len(proc.Params) {
		return nil, fmt.Errorf("interp: %s expects %d args, got %d",
			proc.Name, len(proc.Params), len(args))
	}
	in.Out.Reset()
	limit := in.MaxSteps
	if limit == 0 {
		limit = 50_000_000
	}
	m := machine{in: in, prog: p, frame: make([]Value, p.slots.Len()), max: limit}
	for i := range m.frame {
		m.frame[i] = unsetVal
	}
	for i, s := range p.paramSlots {
		m.frame[s] = copyValue(args[i])
	}
	if n := len(p.calls); n > 0 {
		m.calls = make([]Builtin, n)
	}
	sig, err := p.body.exec(&m)
	if err != nil {
		return nil, fmt.Errorf("interp: %s: %w", proc.Name, err)
	}
	var ret []Value
	if sig == sigReturn {
		ret = m.ret
	}
	env := make(map[string]Value, len(m.frame))
	for i, v := range m.frame {
		if v != unsetVal {
			env[p.slots.Name(i)] = v
		}
	}
	return &Result{Returned: ret, Env: env, Output: in.Out.String()}, nil
}
