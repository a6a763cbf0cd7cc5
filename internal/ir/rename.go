package ir

// RenameReads replaces every *read* of variable old in s by new. Writes
// (assignment targets, mutated call arguments) are left untouched. This is
// the primitive behind Rule C2's reader stubs.
//
// A subtlety from the paper's moveAfter procedure: a mutated call argument
// (e.g. the list in removeFirst(list)) is both read and written through the
// same syntactic occurrence, so it cannot be renamed read-only; callers must
// not request read-renaming of such occurrences. RenameReads has no registry
// to tell those positions apart, so it renames every read it finds.
func RenameReads(s Stmt, old, new string) {
	for _, e := range Operands(s) {
		*e = renameReadsExprTree(*e, old, new)
	}
	// Guards are reads too.
	if g := s.GetGuard(); g != nil && g.Var == old {
		s.SetGuard(&Guard{Var: new, Neg: g.Neg})
	}
}

func renameReadsExprTree(e Expr, old, new string) Expr {
	switch x := e.(type) {
	case *Var:
		if x.Name == old {
			return &Var{Name: new}
		}
	case *Bin:
		x.L = renameReadsExprTree(x.L, old, new)
		x.R = renameReadsExprTree(x.R, old, new)
	case *Un:
		x.X = renameReadsExprTree(x.X, old, new)
	case *Call:
		for i := range x.Args {
			x.Args[i] = renameReadsExprTree(x.Args[i], old, new)
		}
	}
	return e
}

// RenameWrites replaces every *write* of variable old in s by new: assignment
// targets and mutated call arguments. This is the primitive behind Rule C3's
// writer stubs. Reads are untouched.
func RenameWrites(s Stmt, old, new string, reg *Registry) {
	switch x := s.(type) {
	case *Assign:
		for i, l := range x.Lhs {
			if l == old {
				x.Lhs[i] = new
			}
		}
		renameMutatedArgs(x.Rhs, old, new, reg)
	case *ExecQuery:
		if x.Lhs == old {
			x.Lhs = new
		}
		for _, a := range x.Args {
			renameMutatedArgs(a, old, new, reg)
		}
	case *Submit:
		if x.Lhs == old {
			x.Lhs = new
		}
	case *Fetch:
		if x.Lhs == old {
			x.Lhs = new
		}
	case *CallStmt:
		renameMutatedArgs(x.Call, old, new, reg)
	case *LoadField:
		if x.Var == old {
			x.Var = new
		}
	case *ForEach:
		if x.Var == old {
			x.Var = new
		}
	}
}

// renameMutatedArgs renames bare-variable occurrences of old in mutated
// argument positions of calls within e. Note: a mutated occurrence is both a
// read and a write of the same variable; the writer-stub construction in
// moveAfter only applies Rule C3 to statements whose write can be renamed
// while the original value is reconstructed afterwards, which does not hold
// for in-place mutation. The reorder algorithm therefore treats mutating
// statements as unmovable-by-stub (see rules.moveAfter). We still implement
// the rename for completeness.
func renameMutatedArgs(e Expr, old, new string, reg *Registry) {
	switch x := e.(type) {
	case *Bin:
		renameMutatedArgs(x.L, old, new, reg)
		renameMutatedArgs(x.R, old, new, reg)
	case *Un:
		renameMutatedArgs(x.X, old, new, reg)
	case *Call:
		sig := reg.Lookup(x.Fn)
		for i, a := range x.Args {
			if v, ok := a.(*Var); ok && v.Name == old && sig != nil && sig.Mutates(i) {
				x.Args[i] = &Var{Name: new}
				continue
			}
			renameMutatedArgs(a, old, new, reg)
		}
	}
}
