package interp

import "fmt"

// This file holds the runtime half of the slot-compiled evaluator: the flat
// frame and the execution machine. The compiler that produces the closures
// the machine runs is in compile.go.

// unsetType marks a frame slot whose variable has not been assigned yet. It
// plays the role a missing map key plays in the tree-walking evaluator, so
// "variable undefined" errors surface identically on both paths.
type unsetType struct{}

func (unsetType) String() string { return "<unset>" }

var unsetVal Value = unsetType{}

// signal is a compiled statement's control-flow outcome.
type signal uint8

const (
	sigNext   signal = iota // fall through to the next statement
	sigReturn               // a Return executed; machine.ret holds the values
)

// machine is the per-run execution state of a compiled Program.
type machine struct {
	in    *Interp
	prog  *Program
	frame []Value   // slot-addressed variables (unsetVal = unassigned)
	ret   []Value   // values of the Return statement that ended the run
	calls []Builtin // per-call-site resolved builtins (lazy, nil = unresolved)
	stack []Value   // builtin arguments, borrowed for the call (see compiler.call)
	slab  []Value   // unused tail of the query-argument chunk (see carve)
	recs  []Record  // unused tail of the record chunk (see newRecord)
	steps int
	max   int
}

// newRecord hands out an empty record from the run's record slab, which
// grows by chunks of 64.
func (m *machine) newRecord() *Record {
	if len(m.recs) == 0 {
		m.recs = make([]Record, 64)
	}
	r := &m.recs[0]
	m.recs = m.recs[1:]
	return r
}

// carve evaluates a query's arguments into a window of the run's argument
// slab, which grows by chunks of 256 values. The window's capacity is its
// length and no later carve touches it, so the query service may keep it
// (the coalescer does until the batch is encoded). Nil in, nil out,
// matching the tree evaluator's evalAll.
func (m *machine) carve(es []exprFn) ([]Value, error) {
	n := len(es)
	if n == 0 {
		return nil, nil
	}
	if len(m.slab) < n {
		m.slab = make([]Value, max(256, n))
	}
	w := m.slab[:n:n]
	if err := m.evalInto(w, es); err != nil {
		return nil, err
	}
	m.slab = m.slab[n:]
	return w, nil
}

// evalInto evaluates es into dst, which has their length.
func (m *machine) evalInto(dst []Value, es []exprFn) error {
	for i, e := range es {
		v, err := e(m)
		if err != nil {
			return err
		}
		dst[i] = v
	}
	return nil
}

// pop clears and drops the builtin arguments pushed above base.
func (m *machine) pop(base int) {
	clear(m.stack[base:])
	m.stack = m.stack[:base]
}

func (m *machine) step() error {
	m.steps++
	if m.steps > m.max {
		return fmt.Errorf("step limit exceeded (%d)", m.max)
	}
	return nil
}

// resolve binds call site idx to its builtin, checking arity against the
// registry exactly as the tree evaluator does on every call. Resolution is
// cached per run, so rebinding builtins between runs stays visible.
func (m *machine) resolve(idx int) (Builtin, error) {
	cs := m.prog.calls[idx]
	f, ok := m.in.Funcs[cs.fn]
	if !ok {
		return nil, fmt.Errorf("function %q not implemented", cs.fn)
	}
	if m.in.Reg != nil {
		if sig := m.in.Reg.Lookup(cs.fn); sig != nil && sig.NArgs >= 0 && sig.NArgs != cs.nargs {
			return nil, fmt.Errorf("%s expects %d args, got %d", cs.fn, sig.NArgs, cs.nargs)
		}
	}
	m.calls[idx] = f
	return f, nil
}

// recordAt reads slot as a *Record with the tree evaluator's error messages.
func (m *machine) recordAt(slot int, name string) (*Record, error) {
	if r, ok := m.frame[slot].(*Record); ok {
		return r, nil
	}
	return nil, varErr(m.frame[slot], m.frame[slot] != unsetVal, "record", name)
}

// tableAt reads slot as a *Table.
func (m *machine) tableAt(slot int, name string) (*Table, error) {
	if t, ok := m.frame[slot].(*Table); ok {
		return t, nil
	}
	return nil, varErr(m.frame[slot], m.frame[slot] != unsetVal, "table", name)
}
