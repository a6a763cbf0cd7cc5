package minilang

import (
	"fmt"

	"repro/internal/ir"
)

// Parse parses a single procedure from src.
//
// Grammar (informal):
//
//	proc      = "proc" IDENT "(" [IDENT {"," IDENT}] ")" block
//	block     = "{" {stmt} "}"
//	stmt      = while | if | foreach | scan | [guard "?"] simple ";"
//	guard     = ["!"] IDENT
//	while     = "while" "(" expr ")" block
//	if        = "if" "(" expr ")" block ["else" block]
//	foreach   = "foreach" IDENT "in" expr block
//	scan      = "scan" IDENT "in" IDENT block
//	simple    = "query" IDENT "=" STRING
//	          | "table" IDENT | "record" IDENT
//	          | "append" "(" IDENT "," IDENT ")"
//	          | "load" IDENT "=" IDENT "." IDENT
//	          | "copy" IDENT "." IDENT "=" IDENT "." IDENT
//	          | "return" [expr {"," expr}]
//	          | "execUpdate" "(" IDENT {"," expr} ")"
//	          | "fetch" "(" expr ")"
//	          | IDENT "." IDENT "=" expr
//	          | identlist "=" rhs
//	          | call
//	rhs       = "execQuery" "(" IDENT {"," expr} ")"
//	          | "execUpdate" "(" IDENT {"," expr} ")"
//	          | "submit" "(" IDENT {"," expr} ")"
//	          | "submitUpdate" "(" IDENT {"," expr} ")"
//	          | "fetch" "(" expr ")"
//	          | expr
//
// Expressions use C-like precedence: || < && < comparisons < + - < * / % <
// unary ! -.
func Parse(src string) (*ir.Proc, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	proc := p.parseProc()
	if !p.at(tokEOF, "") {
		p.fail("expected end of input, found %s", p.peek())
	}
	if p.err != nil {
		return nil, p.err
	}
	return proc, nil
}

// MustParse parses or panics; for tests and embedded app sources.
func MustParse(src string) *ir.Proc {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// parser is a recursive descent over the token slice. It keeps the first
// error (see fail); from then on every primitive reads end of input, so each
// rule runs to its end and returns a value the caller never sees.
type parser struct {
	toks []token
	pos  int
	err  error
}

func (p *parser) peek() token {
	if p.err != nil {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos]
}

func (p *parser) peek2() token {
	if p.err == nil && p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}

func (p *parser) next() token {
	t := p.peek()
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) at(kind tokKind, text string) bool {
	t := p.peek()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) accept(kind tokKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind tokKind, text string) token {
	if p.at(kind, text) {
		return p.next()
	}
	want := text
	if want == "" {
		switch kind {
		case tokIdent:
			want = "identifier"
		case tokString:
			want = "string literal"
		case tokInt:
			want = "integer"
		}
	}
	p.fail("expected %q, found %s", want, p.peek())
	return token{}
}

// ident expects an identifier and returns its text.
func (p *parser) ident() string { return p.expect(tokIdent, "").text }

// fail records an error at the current token, unless one is recorded already.
func (p *parser) fail(format string, args ...any) {
	if p.err == nil {
		t := p.peek()
		p.err = &Error{Line: t.line, Col: t.col, Msg: fmt.Sprintf(format, args...)}
	}
}

func (p *parser) parseProc() *ir.Proc {
	p.expect(tokIdent, "proc")
	proc := &ir.Proc{Name: p.ident()}
	p.expect(tokPunct, "(")
	if !p.at(tokPunct, ")") {
		proc.Params = p.identList()
	}
	p.expect(tokPunct, ")")
	proc.Body = p.parseBlock(proc, true)
	return proc
}

// parseBlock parses "{ stmts }". Query declarations are only allowed at the
// top level of the procedure body (topLevel), where they are hoisted into
// proc.Queries. Return is only allowed as the final top-level statement.
func (p *parser) parseBlock(proc *ir.Proc, topLevel bool) *ir.Block {
	p.expect(tokPunct, "{")
	blk := &ir.Block{}
	for !p.at(tokPunct, "}") {
		if p.at(tokEOF, "") {
			p.fail("unexpected end of input, missing '}'")
			return blk
		}
		if topLevel && p.at(tokIdent, "query") && p.peek2().kind == tokIdent {
			p.next()
			qn := p.ident()
			p.expect(tokPunct, "=")
			qs := p.expect(tokString, "")
			p.expect(tokPunct, ";")
			proc.Queries = append(proc.Queries, ir.QueryDecl{Name: qn, SQL: qs.str})
			continue
		}
		s := p.parseStmt(proc)
		blk.Stmts = append(blk.Stmts, s)
		if _, ok := s.(*ir.Return); ok {
			if !topLevel {
				p.fail("return is only allowed at the top level of a procedure")
			} else if !p.at(tokPunct, "}") {
				p.fail("return must be the final statement")
			}
		}
	}
	p.next() // consume '}'
	return blk
}

func (p *parser) parseStmt(proc *ir.Proc) ir.Stmt {
	t := p.peek()
	if t.kind == tokIdent {
		switch t.text {
		case "while":
			p.next()
			cond := p.parenExpr()
			return &ir.While{Cond: cond, Body: p.parseBlock(proc, false)}
		case "if":
			p.next()
			cond := p.parenExpr()
			s := &ir.If{Cond: cond, Then: p.parseBlock(proc, false)}
			if p.accept(tokIdent, "else") {
				s.Else = p.parseBlock(proc, false)
			}
			return s
		case "foreach":
			p.next()
			v := p.ident()
			p.expect(tokIdent, "in")
			coll := p.parseExpr()
			return &ir.ForEach{Var: v, Coll: coll, Body: p.parseBlock(proc, false)}
		case "scan":
			p.next()
			r := p.ident()
			p.expect(tokIdent, "in")
			tbl := p.ident()
			return &ir.Scan{Record: r, Table: tbl, Body: p.parseBlock(proc, false)}
		}
	}
	// Guarded or simple statement, ending in ';'.
	var g *ir.Guard
	if t.kind == tokPunct && t.text == "!" && p.peek2().kind == tokIdent {
		// "!cv ? stmt"
		save := p.pos
		p.next()
		v := p.next()
		if p.accept(tokPunct, "?") {
			g = &ir.Guard{Var: v.text, Neg: true}
		} else {
			p.pos = save
		}
	} else if t.kind == tokIdent && p.peek2().kind == tokPunct && p.peek2().text == "?" {
		p.next()
		p.next()
		g = &ir.Guard{Var: t.text}
	}
	s := p.parseSimple()
	if g != nil && s != nil {
		s.SetGuard(g)
	}
	p.expect(tokPunct, ";")
	return s
}

func (p *parser) parseSimple() ir.Stmt {
	t := p.peek()
	if t.kind != tokIdent {
		p.fail("expected statement, found %s", t)
		return nil
	}
	switch t.text {
	case "table":
		p.next()
		return &ir.DeclTable{Name: p.ident()}
	case "record":
		p.next()
		return &ir.NewRecord{Name: p.ident()}
	case "append":
		p.next()
		p.expect(tokPunct, "(")
		tbl := p.ident()
		p.expect(tokPunct, ",")
		rec := p.ident()
		p.expect(tokPunct, ")")
		return &ir.AppendRecord{Table: tbl, Record: rec}
	case "load":
		p.next()
		v := p.ident()
		p.expect(tokPunct, "=")
		rec := p.ident()
		p.expect(tokPunct, ".")
		return &ir.LoadField{Var: v, Record: rec, Field: p.ident()}
	case "copy":
		p.next()
		dst := p.ident()
		p.expect(tokPunct, ".")
		df := p.ident()
		p.expect(tokPunct, "=")
		src := p.ident()
		p.expect(tokPunct, ".")
		return &ir.CopyField{DstRec: dst, DstField: df, SrcRec: src, SrcField: p.ident()}
	case "return":
		p.next()
		ret := &ir.Return{}
		if !p.at(tokPunct, ";") {
			ret.Vals = p.exprList()
		}
		return ret
	case "execUpdate":
		p.next()
		q, args := p.parseQueryCallArgs()
		return &ir.ExecQuery{Query: q, Args: args, Kind: ir.QueryUpdate}
	case "fetch":
		p.next()
		return &ir.Fetch{Handle: p.parenExpr()}
	}
	// SetField: IDENT '.' IDENT '=' expr
	if p.peek2().kind == tokPunct && p.peek2().text == "." {
		rec := p.next()
		p.next() // '.'
		f := p.ident()
		p.expect(tokPunct, "=")
		return &ir.SetField{Record: rec.text, Field: f, Val: p.parseExpr()}
	}
	// Assignment (possibly multi) or call statement.
	if p.peek2().kind == tokPunct && (p.peek2().text == "=" || p.peek2().text == ",") {
		lhs := p.identList()
		p.expect(tokPunct, "=")
		return p.parseAssignRhs(lhs)
	}
	// Call statement.
	call, ok := p.parseExpr().(*ir.Call)
	if !ok {
		p.fail("expression statements must be calls")
	}
	return &ir.CallStmt{Call: call}
}

func (p *parser) parseAssignRhs(lhs []string) ir.Stmt {
	t := p.peek()
	if t.kind == tokIdent {
		switch t.text {
		case "execQuery", "execUpdate":
			p.next()
			q, args := p.parseQueryCallArgs()
			if len(lhs) != 1 {
				p.fail("%s assigns exactly one variable", t.text)
			}
			kind := ir.QuerySelect
			if t.text == "execUpdate" {
				kind = ir.QueryUpdate
			}
			return &ir.ExecQuery{Lhs: lhs[0], Query: q, Args: args, Kind: kind}
		case "submit", "submitUpdate":
			p.next()
			q, args := p.parseQueryCallArgs()
			if len(lhs) != 1 {
				p.fail("%s assigns exactly one handle variable", t.text)
			}
			kind := ir.QuerySelect
			if t.text == "submitUpdate" {
				kind = ir.QueryUpdate
			}
			return &ir.Submit{Lhs: lhs[0], Query: q, Args: args, Kind: kind}
		case "fetch":
			p.next()
			h := p.parenExpr()
			if len(lhs) != 1 {
				p.fail("fetch assigns exactly one variable")
			}
			return &ir.Fetch{Lhs: lhs[0], Handle: h}
		}
	}
	return &ir.Assign{Lhs: lhs, Rhs: p.parseExpr()}
}

// parseQueryCallArgs parses "( queryName {, expr} )".
func (p *parser) parseQueryCallArgs() (string, []ir.Expr) {
	p.expect(tokPunct, "(")
	q := p.ident()
	var args []ir.Expr
	if p.accept(tokPunct, ",") {
		args = p.exprList()
	}
	p.expect(tokPunct, ")")
	return q, args
}

// identList parses IDENT {"," IDENT}.
func (p *parser) identList() []string {
	var out []string
	for {
		out = append(out, p.ident())
		if !p.accept(tokPunct, ",") {
			return out
		}
	}
}

// exprList parses expr {"," expr}.
func (p *parser) exprList() []ir.Expr {
	var out []ir.Expr
	for {
		out = append(out, p.parseExpr())
		if !p.accept(tokPunct, ",") {
			return out
		}
	}
}

// parenExpr parses "(" expr ")".
func (p *parser) parenExpr() ir.Expr {
	p.expect(tokPunct, "(")
	e := p.parseExpr()
	p.expect(tokPunct, ")")
	return e
}

// Expression parsing: precedence climbing.

var binPrec = map[string]int{
	"||": 1, "&&": 2,
	"==": 3, "!=": 3, "<": 3, "<=": 3, ">": 3, ">=": 3,
	"+": 4, "-": 4,
	"*": 5, "/": 5, "%": 5,
}

func (p *parser) parseExpr() ir.Expr { return p.parseBin(1) }

func (p *parser) parseBin(minPrec int) ir.Expr {
	lhs := p.parseUnary()
	for {
		t := p.peek()
		if t.kind != tokPunct {
			return lhs
		}
		pr, ok := binPrec[t.text]
		if !ok || pr < minPrec {
			return lhs
		}
		p.next()
		lhs = &ir.Bin{Op: t.text, L: lhs, R: p.parseBin(pr + 1)}
	}
}

func (p *parser) parseUnary() ir.Expr {
	t := p.peek()
	if t.kind == tokPunct && (t.text == "!" || t.text == "-") {
		p.next()
		return &ir.Un{Op: t.text, X: p.parseUnary()}
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() ir.Expr {
	t := p.peek()
	switch t.kind {
	case tokInt:
		p.next()
		return ir.IntLit(t.int)
	case tokString:
		p.next()
		return ir.StrLit(t.str)
	case tokIdent:
		switch t.text {
		case "true":
			p.next()
			return ir.BoolLit(true)
		case "false":
			p.next()
			return ir.BoolLit(false)
		case "null":
			p.next()
			return ir.NullLit()
		}
		p.next()
		if p.accept(tokPunct, "(") {
			call := &ir.Call{Fn: t.text}
			if !p.at(tokPunct, ")") {
				call.Args = p.exprList()
			}
			p.expect(tokPunct, ")")
			return call
		}
		return ir.V(t.text)
	case tokPunct:
		if t.text == "(" {
			return p.parenExpr()
		}
	}
	p.fail("expected expression, found %s", t)
	return nil
}
