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

type sparser struct {
	toks []token
	pos  int
	np   int
}

func (p *sparser) peek() token {
	if p.pos < len(p.toks) {
		return p.toks[p.pos]
	}
	return token{kind: "eof"}
}
func (p *sparser) next() token { t := p.peek(); p.pos++; return t }

func (p *sparser) word(w string) bool {
	t := p.peek()
	if t.kind == "word" && strings.EqualFold(t.s, w) {
		p.pos++
		return true
	}
	return false
}

func (p *sparser) expectWord(w string) error {
	if !p.word(w) {
		return fmt.Errorf("sqlmini: expected %s near %q", strings.ToUpper(w), p.peek().s)
	}
	return nil
}

func (p *sparser) expectPunct(s string) error {
	t := p.peek()
	if t.kind == "punct" && t.s == s {
		p.pos++
		return nil
	}
	return fmt.Errorf("sqlmini: expected %q near %q", s, t.s)
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
		st, err = p.parseSelect()
	case p.word("insert"):
		st, err = p.parseInsert()
	default:
		err = fmt.Errorf("sqlmini: expected SELECT or INSERT")
	}
	if err != nil {
		return nil, err
	}
	if p.peek().kind != "eof" {
		return nil, fmt.Errorf("sqlmini: trailing input near %q", p.peek().s)
	}
	st.NumParams = p.np
	return st, nil
}

func (p *sparser) parseSelect() (*Stmt, error) {
	st := &Stmt{}
	t := p.peek()
	switch {
	case t.kind == "punct" && t.s == "*":
		p.pos++
		st.Cols = []string{"*"}
	case t.kind == "word" && isAgg(t.s):
		p.pos++
		st.Agg = aggKind(t.s)
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		inner := p.next()
		switch {
		case inner.kind == "punct" && inner.s == "*":
			if st.Agg != AggCount {
				return nil, fmt.Errorf("sqlmini: %s(*) not supported", t.s)
			}
		case inner.kind == "word":
			st.AggCol = inner.s
		default:
			return nil, fmt.Errorf("sqlmini: bad aggregate argument")
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	default:
		for {
			w := p.next()
			if w.kind != "word" {
				return nil, fmt.Errorf("sqlmini: expected column name, got %q", w.s)
			}
			st.Cols = append(st.Cols, w.s)
			if t := p.peek(); t.kind == "punct" && t.s == "," {
				p.pos++
				continue
			}
			break
		}
	}
	if err := p.expectWord("from"); err != nil {
		return nil, err
	}
	tbl := p.next()
	if tbl.kind != "word" {
		return nil, fmt.Errorf("sqlmini: expected table name")
	}
	st.Table = tbl.s
	if p.word("where") {
		for {
			c, err := p.parseCond()
			if err != nil {
				return nil, err
			}
			st.Where = append(st.Where, c)
			if !p.word("and") {
				break
			}
		}
	}
	return st, nil
}

func (p *sparser) parseCond() (Cond, error) {
	col := p.next()
	if col.kind != "word" {
		return Cond{}, fmt.Errorf("sqlmini: expected column in WHERE, got %q", col.s)
	}
	if err := p.expectPunct("="); err != nil {
		return Cond{}, err
	}
	v := p.next()
	switch v.kind {
	case "param":
		c := Cond{Col: col.s, Param: p.np}
		p.np++
		return c, nil
	case "int":
		return Cond{Col: col.s, Param: -1, Lit: v.i}, nil
	case "str":
		return Cond{Col: col.s, Param: -1, Lit: v.s}, nil
	}
	return Cond{}, fmt.Errorf("sqlmini: expected ? or literal in WHERE")
}

func (p *sparser) parseInsert() (*Stmt, error) {
	st := &Stmt{Insert: true}
	if err := p.expectWord("into"); err != nil {
		return nil, err
	}
	tbl := p.next()
	if tbl.kind != "word" {
		return nil, fmt.Errorf("sqlmini: expected table name")
	}
	st.Table = tbl.s
	if err := p.expectWord("values"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	for {
		v := p.next()
		switch v.kind {
		case "param":
			st.Values = append(st.Values, p.np)
			st.Lits = append(st.Lits, nil)
			p.np++
		case "int":
			st.Values = append(st.Values, -1)
			st.Lits = append(st.Lits, v.i)
		case "str":
			st.Values = append(st.Values, -1)
			st.Lits = append(st.Lits, v.s)
		default:
			return nil, fmt.Errorf("sqlmini: expected value, got %q", v.s)
		}
		if t := p.peek(); t.kind == "punct" && t.s == "," {
			p.pos++
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return st, nil
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
