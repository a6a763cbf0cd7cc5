// Package ir defines the statement-level intermediate representation used by
// the asyncq transformation engine. It plays the role SOOT's Jimple plays in
// the paper: a flat, analyzable statement form with explicit guards, on which
// the data dependence graph is built and the transformation rules operate.
package ir

// Proc is a procedure: the unit of analysis and transformation.
// It corresponds to a Java method body in the paper's tool.
type Proc struct {
	Name    string
	Params  []string
	Queries []QueryDecl // prepared statements declared up front
	Body    *Block
}

// QueryDecl is a prepared query: a name bound to a SQL (or web-service) text
// with '?' placeholders, mirroring dbCon.prepare(...) in the paper.
type QueryDecl struct {
	Name string
	SQL  string
}

// Block is an ordered statement list.
type Block struct {
	Stmts []Stmt
}

// Guard makes a statement conditional on a boolean variable, the form Rule B
// produces: "cv ? stmt" executes stmt only when cv is true (or false when
// Neg is set). A nil *Guard means the statement is unconditional.
type Guard struct {
	Var string
	Neg bool
}

func (g *Guard) String() string {
	if g == nil {
		return ""
	}
	if g.Neg {
		return "!" + g.Var
	}
	return g.Var
}

// Equal reports whether two guards are the same condition.
func (g *Guard) Equal(h *Guard) bool {
	if g == nil || h == nil {
		return g == h
	}
	return g.Var == h.Var && g.Neg == h.Neg
}

// Copy returns a guard of its own with the same condition (nil for nil), so
// that no two statements share one.
func (g *Guard) Copy() *Guard {
	if g == nil {
		return nil
	}
	cp := *g
	return &cp
}

// Stmt is implemented by every statement node.
type Stmt interface {
	isStmt()
	// GetGuard returns the statement's guard (nil when unconditional or the
	// statement kind cannot be guarded).
	GetGuard() *Guard
	// SetGuard replaces the statement's guard. It panics for compound
	// statements, which cannot be guarded (Rule B removes them first).
	SetGuard(*Guard)
}

// guarded is embedded by all guardable (simple) statements.
type guarded struct {
	Guard *Guard
}

func (g *guarded) GetGuard() *Guard  { return g.Guard }
func (g *guarded) SetGuard(x *Guard) { g.Guard = x }

// unguardable is embedded by compound statements.
type unguardable struct{}

func (unguardable) GetGuard() *Guard { return nil }
func (unguardable) SetGuard(*Guard) {
	panic("ir: compound statements cannot carry guards; apply Rule B first")
}

// Assign is "lhs[, lhs...] = rhs". Multi-assignment models calls returning
// several values (e.g. "stack, top = block(curcat, top)" from Example 9).
type Assign struct {
	guarded
	Lhs []string
	Rhs Expr
}

// QueryKind distinguishes read queries from updates.
type QueryKind int

const (
	// QuerySelect is a read-only query (reads the external database state).
	QuerySelect QueryKind = iota
	// QueryUpdate is an INSERT/UPDATE/DELETE (writes the database state).
	QueryUpdate
)

func (k QueryKind) String() string {
	if k == QueryUpdate {
		return "execUpdate"
	}
	return "execQuery"
}

// ExecQuery is the blocking call of the paper: "v = executeQuery(q, args...)"
// (Kind == QuerySelect) or "execUpdate(q, args...)" (Kind == QueryUpdate,
// empty Lhs). This is the statement the transformation converts into a
// Submit/Fetch pair.
type ExecQuery struct {
	guarded
	Lhs   string // result variable; "" for updates
	Query string // name of a QueryDecl
	Args  []Expr
	Kind  QueryKind
}

// Submit is the non-blocking submission: "h = submit(q, args...)". It returns
// immediately with a handle (paper §II, observer model).
type Submit struct {
	guarded
	Lhs   string // handle variable
	Query string
	Args  []Expr
	Kind  QueryKind
}

// Fetch blocks until the submitted query identified by the handle completes:
// "v = fetch(h)".
type Fetch struct {
	guarded
	Lhs    string // result variable; "" when the submission was an update
	Handle Expr
}

// CallStmt is a side-effecting call used as a statement, e.g. "print(v)",
// "process(x)".
type CallStmt struct {
	guarded
	Call *Call
}

// Return ends the procedure. The parser only accepts it as the final
// statement of a procedure body, so dataflow analysis never sees early exits.
type Return struct {
	guarded
	Vals []Expr
}

// DeclTable introduces an (initially empty) record table, the inter-loop
// carrier introduced by Rule A: "table t;".
type DeclTable struct {
	guarded
	Name string
}

// NewRecord starts a fresh record: "record r;". One record is appended per
// source-loop iteration.
type NewRecord struct {
	guarded
	Name string
}

// SetField stores a value into a record field: "r.f = expr". Unset fields
// read back as absent, which is what makes the conditional restores of Rule A
// (paper §III-B point 3) work.
type SetField struct {
	guarded
	Record string
	Field  string
	Val    Expr
}

// AppendRecord appends the record to the table: "append(t, r)".
type AppendRecord struct {
	guarded
	Table  string
	Record string
}

// LoadField is the conditional restore of Rule A: "load v = r.f" assigns
// r.f to v only when the field was set; otherwise v keeps its prior value.
type LoadField struct {
	guarded
	Var    string
	Record string
	Field  string
}

// CopyField propagates a field between records preserving unsetness:
// "copy dst.f = src.g" sets dst.f to src.g only when src.g was set. Chained
// fissions need it to carry a conditionally-captured variable through a
// second record without turning it unconditional.
type CopyField struct {
	guarded
	DstRec   string
	DstField string
	SrcRec   string
	SrcField string
}

// While is "while (cond) { body }".
type While struct {
	unguardable
	Cond Expr
	Body *Block
}

// If is "if (cond) { then } [else { else }]".
type If struct {
	unguardable
	Cond Expr
	Then *Block
	Else *Block // may be nil
}

// ForEach iterates over a list value: "foreach x in expr { body }". The
// element variable is written each iteration.
type ForEach struct {
	unguardable
	Var  string
	Coll Expr
	Body *Block
}

// Scan iterates the records of a table in insertion order:
// "scan r in t { body }". This is the second loop Rule A generates
// ("for each r in t order by t.key" in the paper).
type Scan struct {
	unguardable
	Record string
	Table  string
	Body   *Block
}

func (*Assign) isStmt()       {}
func (*ExecQuery) isStmt()    {}
func (*Submit) isStmt()       {}
func (*Fetch) isStmt()        {}
func (*CallStmt) isStmt()     {}
func (*Return) isStmt()       {}
func (*DeclTable) isStmt()    {}
func (*NewRecord) isStmt()    {}
func (*SetField) isStmt()     {}
func (*AppendRecord) isStmt() {}
func (*LoadField) isStmt()    {}
func (*CopyField) isStmt()    {}
func (*While) isStmt()        {}
func (*If) isStmt()           {}
func (*ForEach) isStmt()      {}
func (*Scan) isStmt()         {}

// IsCompound reports whether s is a control-flow statement with nested
// blocks (If, While, ForEach, Scan).
func IsCompound(s Stmt) bool {
	switch s.(type) {
	case *While, *If, *ForEach, *Scan:
		return true
	}
	return false
}

// LoopBody returns the body of a loop statement (While, ForEach, Scan) and
// nil for any other statement.
func LoopBody(s Stmt) *Block {
	switch x := s.(type) {
	case *While:
		return x.Body
	case *ForEach:
		return x.Body
	case *Scan:
		return x.Body
	}
	return nil
}

// Expr is implemented by every expression node. Expressions are pure except
// for Call, whose effects come from the function registry.
type Expr interface {
	isExpr()
}

// Var references a variable.
type Var struct {
	Name string
}

// Lit is a literal: int64, string, bool, or nil (null).
type Lit struct {
	V any
}

// Bin is a binary operation.
type Bin struct {
	Op   string // + - * / % == != < <= > >= && ||
	L, R Expr
}

// Un is a unary operation.
type Un struct {
	Op string // ! -
	X  Expr
}

// Call invokes a registered function: "f(args...)". Semantics and effects
// come from the Registry entry for Fn.
type Call struct {
	Fn   string
	Args []Expr
}

func (*Var) isExpr()  {}
func (*Lit) isExpr()  {}
func (*Bin) isExpr()  {}
func (*Un) isExpr()   {}
func (*Call) isExpr() {}

// IntLit, StrLit, BoolLit, NullLit are literal constructors.
func IntLit(v int64) *Lit  { return &Lit{V: v} }
func StrLit(v string) *Lit { return &Lit{V: v} }
func BoolLit(v bool) *Lit  { return &Lit{V: v} }
func NullLit() *Lit        { return &Lit{V: nil} }
func V(name string) *Var   { return &Var{Name: name} }

// WalkExprs calls fn for every expression appearing directly in s (not
// descending into nested blocks of compound statements).
func WalkExprs(s Stmt, fn func(Expr)) {
	var walk func(e Expr)
	walk = func(e Expr) {
		if e == nil {
			return
		}
		fn(e)
		switch x := e.(type) {
		case *Bin:
			walk(x.L)
			walk(x.R)
		case *Un:
			walk(x.X)
		case *Call:
			for _, a := range x.Args {
				walk(a)
			}
		}
	}
	for _, e := range Operands(s) {
		walk(*e)
	}
}

// Operands lists the expression fields of s itself, in source order (not
// descending into nested blocks of compound statements), so that a pass can
// read or replace them. A CallStmt's call is listed through a copy of its
// pointer: a rewrite inside the call reaches the statement, replacing the
// call would not.
func Operands(s Stmt) []*Expr {
	switch x := s.(type) {
	case *Assign:
		return []*Expr{&x.Rhs}
	case *ExecQuery:
		return fields(x.Args)
	case *Submit:
		return fields(x.Args)
	case *Fetch:
		return []*Expr{&x.Handle}
	case *CallStmt:
		var call Expr = x.Call
		return []*Expr{&call}
	case *Return:
		return fields(x.Vals)
	case *SetField:
		return []*Expr{&x.Val}
	case *While:
		return []*Expr{&x.Cond}
	case *If:
		return []*Expr{&x.Cond}
	case *ForEach:
		return []*Expr{&x.Coll}
	}
	return nil
}

func fields(es []Expr) []*Expr {
	ps := make([]*Expr, len(es))
	for i := range es {
		ps[i] = &es[i]
	}
	return ps
}

// Blocks returns the nested blocks of a compound statement (nil otherwise).
func Blocks(s Stmt) []*Block {
	switch x := s.(type) {
	case *While:
		return []*Block{x.Body}
	case *If:
		if x.Else != nil {
			return []*Block{x.Then, x.Else}
		}
		return []*Block{x.Then}
	case *ForEach:
		return []*Block{x.Body}
	case *Scan:
		return []*Block{x.Body}
	}
	return nil
}

// WalkStmts visits every statement in the block, depth first, including
// statements inside nested blocks.
func WalkStmts(b *Block, fn func(Stmt)) {
	if b == nil {
		return
	}
	for _, s := range b.Stmts {
		fn(s)
		for _, nb := range Blocks(s) {
			WalkStmts(nb, fn)
		}
	}
}
