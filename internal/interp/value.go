// Package interp is a tree-walking interpreter for the internal/ir
// mini-language. It executes both original (blocking) and transformed
// (asynchronous) programs against a pluggable QueryService, which is how the
// test suite checks semantic equivalence of transformations and how the
// experiment harness measures end-to-end running times.
package interp

import (
	"fmt"
	"sort"
	"strings"
)

// Value is a runtime value: int64, string, bool, nil, *List, *Record,
// *Table, Row, Rows, or a query Handle.
type Value = any

// List is a mutable sequence. The mini-language has VALUE semantics for
// lists: assignment, record-field capture and record-field restore all copy,
// so the reader/writer stubs of Rule C are sound for list-valued variables
// too. Mutating builtins (removeFirst, push, ...) operate in place on the
// list bound to the named variable.
type List struct {
	Items []Value
}

// NewList builds a list from items.
func NewList(items ...Value) *List { return &List{Items: items} }

// Copy deep-copies the list (one level: elements are themselves copied via
// copyValue).
func (l *List) Copy() *List {
	items := make([]Value, len(l.Items))
	for i, v := range l.Items {
		items[i] = copyValue(v)
	}
	return &List{Items: items}
}

// Row is one result row of a query: column name to value.
type Row map[string]Value

// Rows is a query result set.
type Rows []Row

// Record is the per-iteration carrier introduced by Rule A. Unset fields are
// simply absent, which implements the conditional restores of the second
// loop. Rule A records carry one to three fields, so they are a short list
// searched linearly, the first two held inline; the zero Record is empty.
// Use it by pointer: a copied Record shares its inline fields.
type Record struct {
	fields []field
	inline [2]field
}

type field struct {
	name string
	val  Value
}

// Set stores a field (copying list values).
func (r *Record) Set(name string, v Value) {
	v = copyValue(v)
	for i := range r.fields {
		if r.fields[i].name == name {
			r.fields[i].val = v
			return
		}
	}
	if r.fields == nil {
		r.fields = r.inline[:0]
	}
	r.fields = append(r.fields, field{name, v})
}

// Get returns the field value and whether it was set.
func (r *Record) Get(name string) (Value, bool) {
	for _, f := range r.fields {
		if f.name == name {
			return f.val, true
		}
	}
	return nil, false
}

// Table is an insertion-ordered collection of records (the temporary table
// of Rule A; insertion order plays the role of the paper's loop key).
type Table struct {
	Records []*Record
}

// Append adds a record.
func (t *Table) Append(r *Record) { t.Records = append(t.Records, r) }

// Handle is a pending asynchronous query. Fetch blocks until the result is
// available (the observer model of §II).
type Handle interface {
	Fetch() (Value, error)
}

// QueryService executes queries for the interpreter. name is the prepared
// query's name, sql its text; args are the bound parameters.
type QueryService interface {
	// Exec runs the query synchronously (the paper's executeQuery).
	Exec(name, sql string, args []Value) (Value, error)
	// Submit starts the query and returns immediately (submitQuery).
	Submit(name, sql string, args []Value) (Handle, error)
}

// copyValue implements the value semantics: lists copy, scalars and
// reference-ish values (records, tables, rows, handles) pass through.
func copyValue(v Value) Value {
	if l, ok := v.(*List); ok {
		return l.Copy()
	}
	return v
}

// Truthy converts a value used as a condition; non-bool conditions are
// errors.
func truthy(v Value) (bool, error) {
	b, ok := v.(bool)
	if !ok {
		return false, fmt.Errorf("condition is %s, not bool", TypeName(v))
	}
	return b, nil
}

// TypeName names a value's type for error messages.
func TypeName(v Value) string {
	switch v.(type) {
	case nil:
		return "null"
	case int64:
		return "int"
	case string:
		return "string"
	case bool:
		return "bool"
	case *List:
		return "list"
	case *Record:
		return "record"
	case *Table:
		return "table"
	case Row:
		return "row"
	case Rows:
		return "rows"
	case Handle:
		return "handle"
	}
	return fmt.Sprintf("%T", v)
}

// Format renders a value deterministically (used by print/log and by
// equivalence checks).
func Format(v Value) string {
	switch x := v.(type) {
	case nil:
		return "null"
	case int64:
		return fmt.Sprintf("%d", x)
	case string:
		return x
	case bool:
		return fmt.Sprintf("%t", x)
	case *List:
		parts := make([]string, len(x.Items))
		for i, it := range x.Items {
			parts[i] = Format(it)
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case Row:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = k + "=" + Format(x[k])
		}
		return "{" + strings.Join(parts, ", ") + "}"
	case Rows:
		parts := make([]string, len(x))
		for i, r := range x {
			parts[i] = Format(r)
		}
		return "rows(" + strings.Join(parts, "; ") + ")"
	case *Record:
		fs := append([]field(nil), x.fields...)
		sort.Slice(fs, func(i, j int) bool { return fs[i].name < fs[j].name })
		parts := make([]string, len(fs))
		for i, f := range fs {
			parts[i] = f.name + "=" + Format(f.val)
		}
		return "record{" + strings.Join(parts, ", ") + "}"
	case *Table:
		return fmt.Sprintf("table(%d records)", len(x.Records))
	}
	return fmt.Sprintf("%v", v)
}

// Equal compares two values structurally (lists element-wise, rows
// field-wise). Handles compare by identity.
func Equal(a, b Value) bool {
	switch x := a.(type) {
	case *List:
		y, ok := b.(*List)
		if !ok || len(x.Items) != len(y.Items) {
			return false
		}
		for i := range x.Items {
			if !Equal(x.Items[i], y.Items[i]) {
				return false
			}
		}
		return true
	case Row:
		y, ok := b.(Row)
		if !ok || len(x) != len(y) {
			return false
		}
		for k, v := range x {
			w, ok := y[k]
			if !ok || !Equal(v, w) {
				return false
			}
		}
		return true
	case Rows:
		y, ok := b.(Rows)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !Equal(x[i], y[i]) {
				return false
			}
		}
		return true
	}
	return a == b
}
