package sqlmini

// Shard-key extraction: a shard router decides where a prepared statement
// executes by reading the value it binds to the declared shard-key column.
// Both lookups work on the parsed Stmt plus the call's arguments, so routing
// costs no re-parse and no execution.

// WhereEqValue returns the value the statement's WHERE clause compares col
// against — the bound parameter or the literal of the first equality
// predicate on col (Cond.Value). ok is false when no predicate mentions col
// or the predicate's parameter is not covered by args.
func (st *Stmt) WhereEqValue(col string, args []any) (any, bool) {
	for i := range st.Where {
		if st.Where[i].Col == col {
			return st.Where[i].Value(args)
		}
	}
	return nil, false
}

// InsertValue returns the value an INSERT statement stores into column
// position colIdx (schema order). ok is false for non-INSERT statements,
// positions outside the VALUES list (an arity error at execution time), or
// parameters not covered by args.
func (st *Stmt) InsertValue(colIdx int, args []any) (any, bool) {
	if !st.Insert || colIdx < 0 || colIdx >= len(st.Values) {
		return nil, false
	}
	ord := st.Values[colIdx]
	if ord < 0 {
		return st.Lits[colIdx], true
	}
	if ord < len(args) {
		return args[ord], true
	}
	return nil, false
}
