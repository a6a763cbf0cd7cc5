// Package sqlmini implements the SQL subset the paper's workloads use:
// prepared SELECT statements with equality predicates, optional aggregates,
// and INSERT ... VALUES. Statements are parsed once at prepare time into a
// Stmt. Execution is one kernel (scratch.run in exec.go) that evaluates a
// statement over a set of bindings: it binds '?' parameters, chooses an index
// or scan access path for the set, drives page accesses through the buffer
// pool, and returns rows or an aggregate scalar per binding. ExecuteBatch is
// that kernel; Execute is it over a set of one.
package sqlmini

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"unicode"
)

// AggKind is the aggregate of a select list.
type AggKind int

const (
	// AggNone means a plain column select.
	AggNone AggKind = iota
	// AggCount is COUNT(*) or COUNT(col).
	AggCount
	// AggSum is SUM(col).
	AggSum
	// AggMax is MAX(col).
	AggMax
	// AggMin is MIN(col).
	AggMin
)

// Cond is one equality predicate: Col = ? (Param >= 0) or Col = literal.
type Cond struct {
	Col   string
	Param int // parameter ordinal, or -1 when Lit is used
	Lit   any
}

// Value returns the predicate's right-hand side under one binding. ok is
// false when args does not cover its parameter (the statement then fails
// parameter validation wherever it executes).
func (c *Cond) Value(args []any) (v any, ok bool) {
	if c.Param < 0 {
		return c.Lit, true
	}
	if c.Param < len(args) {
		return args[c.Param], true
	}
	return nil, false
}

// Stmt is a parsed statement.
type Stmt struct {
	// Insert is set for INSERT statements.
	Insert bool
	Table  string
	// Select fields:
	Agg    AggKind
	AggCol string   // aggregated column ("" for COUNT(*))
	Cols   []string // selected columns; ["*"] for star
	Where  []Cond
	// Insert fields:
	Values []int // parameter ordinal per column, or -1 for literal
	Lits   []any // literal per column when ordinal is -1
	// NumParams is the number of '?' placeholders.
	NumParams int

	// plan caches the schema resolution against the table the statement
	// last executed on (see compile.go). Stmts are shared by pointer; the
	// atomic makes concurrent first executions race-free.
	plan atomic.Pointer[stmtPlan]
}

type token struct {
	kind string // word, punct, int, str, param
	s    string
	i    int64
}

func lex(sql string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(sql) {
		c := sql[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '?':
			toks = append(toks, token{kind: "param"})
			i++
		case c == '(' || c == ')' || c == ',' || c == '=' || c == '*':
			toks = append(toks, token{kind: "punct", s: string(c)})
			i++
		case c == '\'':
			j := i + 1
			for j < len(sql) && sql[j] != '\'' {
				j++
			}
			if j >= len(sql) {
				return nil, fmt.Errorf("sqlmini: unterminated string")
			}
			toks = append(toks, token{kind: "str", s: sql[i+1 : j]})
			i = j + 1
		case unicode.IsDigit(rune(c)) || (c == '-' && i+1 < len(sql) && unicode.IsDigit(rune(sql[i+1]))):
			j := i + 1
			for j < len(sql) && unicode.IsDigit(rune(sql[j])) {
				j++
			}
			v, err := strconv.ParseInt(sql[i:j], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("sqlmini: bad number %q", sql[i:j])
			}
			toks = append(toks, token{kind: "int", i: v})
			i = j
		case unicode.IsLetter(rune(c)) || c == '_':
			j := i + 1
			for j < len(sql) && (unicode.IsLetter(rune(sql[j])) || unicode.IsDigit(rune(sql[j])) || sql[j] == '_' || sql[j] == '.') {
				j++
			}
			toks = append(toks, token{kind: "word", s: sql[i:j]})
			i = j
		default:
			return nil, fmt.Errorf("sqlmini: unexpected character %q", c)
		}
	}
	return toks, nil
}

// sparser is a recursive descent over the token slice. It keeps the first
// error (see fail); from then on peek reads end of input, so every rule runs
// to its end and Parse reports that one error.
type sparser struct {
	toks []token
	pos  int
	np   int
	err  error
}

func (p *sparser) peek() token {
	if p.err == nil && p.pos < len(p.toks) {
		return p.toks[p.pos]
	}
	return token{kind: "eof"}
}
func (p *sparser) next() token { t := p.peek(); p.pos++; return t }

// fail records an error, unless one is recorded already.
func (p *sparser) fail(format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf("sqlmini: "+format, args...)
	}
}

func (p *sparser) word(w string) bool {
	t := p.peek()
	if t.kind == "word" && strings.EqualFold(t.s, w) {
		p.pos++
		return true
	}
	return false
}

func (p *sparser) punct(s string) bool {
	t := p.peek()
	if t.kind == "punct" && t.s == s {
		p.pos++
		return true
	}
	return false
}

func (p *sparser) expectWord(w string) {
	if !p.word(w) {
		p.fail("expected %s near %q", strings.ToUpper(w), p.peek().s)
	}
}

func (p *sparser) expectPunct(s string) {
	if !p.punct(s) {
		p.fail("expected %q near %q", s, p.peek().s)
	}
}

// table reads a table name.
func (p *sparser) table() string {
	t := p.next()
	if t.kind != "word" {
		p.fail("expected table name")
	}
	return t.s
}

// value reads a bound value: a '?', which takes the next parameter ordinal,
// or an int or string literal, whose ordinal is -1. Any other token goes to
// bad, which reports it.
func (p *sparser) value(bad func(t token)) (param int, lit any) {
	switch t := p.next(); t.kind {
	case "param":
		p.np++
		return p.np - 1, nil
	case "int":
		return -1, t.i
	case "str":
		return -1, t.s
	default:
		bad(t)
		return -1, nil
	}
}

// Parse compiles a SQL string into a Stmt.
func Parse(sql string) (*Stmt, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &sparser{toks: toks}
	var st *Stmt
	switch {
	case p.word("select"):
		st = p.parseSelect()
	case p.word("insert"):
		st = p.parseInsert()
	default:
		p.fail("expected SELECT or INSERT")
	}
	if t := p.peek(); t.kind != "eof" {
		p.fail("trailing input near %q", t.s)
	}
	if p.err != nil {
		return nil, p.err
	}
	st.NumParams = p.np
	return st, nil
}

func (p *sparser) parseSelect() *Stmt {
	st := &Stmt{}
	t := p.peek()
	switch {
	case t.kind == "punct" && t.s == "*":
		p.pos++
		st.Cols = []string{"*"}
	case t.kind == "word" && isAgg(t.s):
		p.pos++
		st.Agg = aggKind(t.s)
		p.expectPunct("(")
		inner := p.next()
		switch {
		case inner.kind == "punct" && inner.s == "*":
			if st.Agg != AggCount {
				p.fail("%s(*) not supported", t.s)
			}
		case inner.kind == "word":
			st.AggCol = inner.s
		default:
			p.fail("bad aggregate argument")
		}
		p.expectPunct(")")
	default:
		for {
			w := p.next()
			if w.kind != "word" {
				p.fail("expected column name, got %q", w.s)
			}
			st.Cols = append(st.Cols, w.s)
			if !p.punct(",") {
				break
			}
		}
	}
	p.expectWord("from")
	st.Table = p.table()
	if p.word("where") {
		for {
			st.Where = append(st.Where, p.parseCond())
			if !p.word("and") {
				break
			}
		}
	}
	return st
}

func (p *sparser) parseCond() Cond {
	col := p.next()
	if col.kind != "word" {
		p.fail("expected column in WHERE, got %q", col.s)
	}
	p.expectPunct("=")
	param, lit := p.value(func(token) { p.fail("expected ? or literal in WHERE") })
	return Cond{Col: col.s, Param: param, Lit: lit}
}

func (p *sparser) parseInsert() *Stmt {
	st := &Stmt{Insert: true}
	p.expectWord("into")
	st.Table = p.table()
	p.expectWord("values")
	p.expectPunct("(")
	for {
		param, lit := p.value(func(t token) { p.fail("expected value, got %q", t.s) })
		st.Values = append(st.Values, param)
		st.Lits = append(st.Lits, lit)
		if !p.punct(",") {
			break
		}
	}
	p.expectPunct(")")
	return st
}

func isAgg(w string) bool {
	switch strings.ToLower(w) {
	case "count", "sum", "max", "min":
		return true
	}
	return false
}

func aggKind(w string) AggKind {
	switch strings.ToLower(w) {
	case "count":
		return AggCount
	case "sum":
		return AggSum
	case "max":
		return AggMax
	case "min":
		return AggMin
	}
	return AggNone
}
