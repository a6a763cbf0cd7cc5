package ir

// External identifies effects on state outside program variables. The paper
// (§III-A, "External data dependencies") models the whole database and the
// output stream conservatively as single locations; we do the same with the
// pseudo-locations LocDB and LocIO.
type External uint8

const (
	// ExtNone means the function touches no external state.
	ExtNone External = 0
	// ExtReadsDB marks a read of the database pseudo-location.
	ExtReadsDB External = 1 << iota
	// ExtWritesDB marks a write of the database pseudo-location.
	ExtWritesDB
	// ExtIO marks a write of the output pseudo-location (print/log order
	// must be preserved).
	ExtIO
)

// FuncSig describes a registered function's dataflow behaviour. All argument
// values are read; MutatesArgs lists the argument positions whose bound
// variable is additionally *mutated* in place (by-reference semantics, e.g.
// list.removeFirst). Mutations are may-writes, never kills.
type FuncSig struct {
	Name        string
	NArgs       int // -1 for variadic
	NRet        int // number of return values
	MutatesArgs []int
	External    External
	// Barrier marks calls that the transformation must never reorder or
	// split across (used to model the recursive-method sites of the paper's
	// Table I bulletin-board analysis).
	Barrier bool
}

// Mutates reports whether argument index i is mutated.
func (f *FuncSig) Mutates(i int) bool {
	for _, j := range f.MutatesArgs {
		if j == i {
			return true
		}
	}
	return false
}

// Registry maps function names to signatures. The transformation engine
// consults it to build read/write sets; the interpreter binds implementations
// separately (internal/interp).
type Registry struct {
	sigs map[string]*FuncSig
}

// NewRegistry returns a registry preloaded with the standard builtins used
// throughout the paper's examples and our applications.
func NewRegistry() *Registry {
	r := &Registry{sigs: make(map[string]*FuncSig)}
	for _, s := range StdSigs() {
		r.Register(s)
	}
	return r
}

// Register adds or replaces a signature.
func (r *Registry) Register(s *FuncSig) {
	r.sigs[s.Name] = s
}

// Lookup returns the signature for name, or nil.
func (r *Registry) Lookup(name string) *FuncSig {
	return r.sigs[name]
}

// StdSigs returns the standard function signatures: pure helpers, mutating
// collection operations, and I/O.
func StdSigs() []*FuncSig {
	return []*FuncSig{
		// Pure functions.
		{Name: "empty", NArgs: 1, NRet: 1},
		{Name: "size", NArgs: 1, NRet: 1},
		{Name: "len", NArgs: 1, NRet: 1},
		{Name: "first", NArgs: 1, NRet: 1},
		{Name: "get", NArgs: 2, NRet: 1},
		{Name: "peek", NArgs: 1, NRet: 1},
		{Name: "list", NArgs: -1, NRet: 1},
		{Name: "concat", NArgs: 2, NRet: 1},
		{Name: "min", NArgs: 2, NRet: 1},
		{Name: "max", NArgs: 2, NRet: 1},
		{Name: "field", NArgs: 2, NRet: 1}, // field(row, "name")
		{Name: "rowcount", NArgs: 1, NRet: 1},
		{Name: "rowat", NArgs: 2, NRet: 1},
		{Name: "tostr", NArgs: 1, NRet: 1},
		{Name: "divmod", NArgs: 2, NRet: 2},
		{Name: "hash", NArgs: 1, NRet: 1},
		// Mutating collection operations (arg 0 is the collection).
		{Name: "removeFirst", NArgs: 1, NRet: 1, MutatesArgs: []int{0}},
		{Name: "removeLast", NArgs: 1, NRet: 1, MutatesArgs: []int{0}},
		{Name: "push", NArgs: 2, NRet: 0, MutatesArgs: []int{0}},
		{Name: "pop", NArgs: 1, NRet: 1, MutatesArgs: []int{0}},
		{Name: "add", NArgs: 2, NRet: 0, MutatesArgs: []int{0}},
		{Name: "clear", NArgs: 1, NRet: 0, MutatesArgs: []int{0}},
		// I/O (writes the $io pseudo-location; order-preserving).
		{Name: "print", NArgs: -1, NRet: 0, External: ExtIO},
		{Name: "log", NArgs: -1, NRet: 0, External: ExtIO},
		// Opaque application helpers used in the paper's examples. They are
		// pure unless stated; apps register their own implementations.
		{Name: "foo", NArgs: -1, NRet: 1},
		{Name: "bar", NArgs: -1, NRet: 1},
		{Name: "process", NArgs: -1, NRet: 0, External: ExtIO},
		{Name: "getParentCategory", NArgs: 1, NRet: 1},
		{Name: "readInputCategory", NArgs: 0, NRet: 1},
		// Barrier call used by the Table I corpus to model recursive method
		// invocation sites (§VI, Applicability).
		{Name: "recurse", NArgs: -1, NRet: 1, Barrier: true,
			External: ExtReadsDB | ExtWritesDB | ExtIO},
	}
}
