package ir

// CloneProc returns a deep copy of p. Transformations mutate statements in
// place, so callers that need to preserve the original clone first.
func CloneProc(p *Proc) *Proc {
	q := &Proc{Name: p.Name, Params: append([]string(nil), p.Params...)}
	q.Queries = append([]QueryDecl(nil), p.Queries...)
	q.Body = CloneBlock(p.Body)
	return q
}

// CloneBlock deep-copies a block.
func CloneBlock(b *Block) *Block {
	if b == nil {
		return nil
	}
	nb := &Block{Stmts: make([]Stmt, len(b.Stmts))}
	for i, s := range b.Stmts {
		nb.Stmts[i] = CloneStmt(s)
	}
	return nb
}

// CloneStmt deep-copies a statement.
func CloneStmt(s Stmt) Stmt {
	switch x := s.(type) {
	case *Assign:
		return &Assign{guarded: cloneGuard(x.guarded), Lhs: append([]string(nil), x.Lhs...), Rhs: CloneExpr(x.Rhs)}
	case *ExecQuery:
		return &ExecQuery{guarded: cloneGuard(x.guarded), Lhs: x.Lhs, Query: x.Query, Args: cloneExprs(x.Args), Kind: x.Kind}
	case *Submit:
		return &Submit{guarded: cloneGuard(x.guarded), Lhs: x.Lhs, Query: x.Query, Args: cloneExprs(x.Args), Kind: x.Kind}
	case *Fetch:
		return &Fetch{guarded: cloneGuard(x.guarded), Lhs: x.Lhs, Handle: CloneExpr(x.Handle)}
	case *CallStmt:
		return &CallStmt{guarded: cloneGuard(x.guarded), Call: CloneExpr(x.Call).(*Call)}
	case *Return:
		return &Return{guarded: cloneGuard(x.guarded), Vals: cloneExprs(x.Vals)}
	case *DeclTable:
		return &DeclTable{guarded: cloneGuard(x.guarded), Name: x.Name}
	case *NewRecord:
		return &NewRecord{guarded: cloneGuard(x.guarded), Name: x.Name}
	case *SetField:
		return &SetField{guarded: cloneGuard(x.guarded), Record: x.Record, Field: x.Field, Val: CloneExpr(x.Val)}
	case *AppendRecord:
		return &AppendRecord{guarded: cloneGuard(x.guarded), Table: x.Table, Record: x.Record}
	case *LoadField:
		return &LoadField{guarded: cloneGuard(x.guarded), Var: x.Var, Record: x.Record, Field: x.Field}
	case *CopyField:
		return &CopyField{guarded: cloneGuard(x.guarded), DstRec: x.DstRec, DstField: x.DstField, SrcRec: x.SrcRec, SrcField: x.SrcField}
	case *While:
		return &While{Cond: CloneExpr(x.Cond), Body: CloneBlock(x.Body)}
	case *If:
		return &If{Cond: CloneExpr(x.Cond), Then: CloneBlock(x.Then), Else: CloneBlock(x.Else)}
	case *ForEach:
		return &ForEach{Var: x.Var, Coll: CloneExpr(x.Coll), Body: CloneBlock(x.Body)}
	case *Scan:
		return &Scan{Record: x.Record, Table: x.Table, Body: CloneBlock(x.Body)}
	}
	panic("ir: CloneStmt: unknown statement type")
}

func cloneGuard(g guarded) guarded { return guarded{Guard: g.Guard.Copy()} }

func cloneExprs(es []Expr) []Expr {
	if es == nil {
		return nil
	}
	out := make([]Expr, len(es))
	for i, e := range es {
		out[i] = CloneExpr(e)
	}
	return out
}

// CloneExpr deep-copies an expression.
func CloneExpr(e Expr) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *Var:
		return &Var{Name: x.Name}
	case *Lit:
		return &Lit{V: x.V}
	case *Bin:
		return &Bin{Op: x.Op, L: CloneExpr(x.L), R: CloneExpr(x.R)}
	case *Un:
		return &Un{Op: x.Op, X: CloneExpr(x.X)}
	case *Call:
		return &Call{Fn: x.Fn, Args: cloneExprs(x.Args)}
	}
	panic("ir: CloneExpr: unknown expression type")
}
