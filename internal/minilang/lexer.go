// Package minilang parses the mini-language front end: a small imperative
// surface syntax for database application kernels, playing the role Java
// source plays for the paper's DBridge tool. Parsed programs lower directly
// to the internal/ir statement form; ir.Print renders IR back to this syntax,
// and the two round-trip.
//
// Parse reports only the first error in a source, the lexer's or the
// parser's, as an *Error at its line and column.
package minilang

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokInt
	tokString
	tokPunct // operators and delimiters
)

type token struct {
	kind tokKind
	text string
	int  int64
	str  string
	line int
	col  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokString:
		return strconv.Quote(t.str)
	default:
		return t.text
	}
}

// Error is a parse error with position information.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string {
	return fmt.Sprintf("minilang:%d:%d: %s", e.Line, e.Col, e.Msg)
}

type lexer struct {
	src  string
	pos  int
	line int
	col  int
	toks []token
}

var punctuation = []string{
	// multi-char first so maximal munch works
	"==", "!=", "<=", ">=", "&&", "||",
	"(", ")", "{", "}", ",", ";", "=", "<", ">", "+", "-", "*", "/", "%",
	"!", "?", ".",
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src, line: 1, col: 1}
	for {
		l.skipSpaceAndComments()
		if l.pos >= len(l.src) {
			l.emit(token{kind: tokEOF, line: l.line, col: l.col})
			return l.toks, nil
		}
		c := l.src[l.pos]
		switch {
		case c == '"':
			if err := l.lexString(); err != nil {
				return nil, err
			}
		case unicode.IsDigit(rune(c)):
			if err := l.lexInt(); err != nil {
				return nil, err
			}
		case unicode.IsLetter(rune(c)) || c == '_':
			l.lexIdent()
		default:
			if !l.lexPunct() {
				return nil, &Error{Line: l.line, Col: l.col, Msg: fmt.Sprintf("unexpected character %q", c)}
			}
		}
	}
}

func (l *lexer) emit(t token) { l.toks = append(l.toks, t) }

func (l *lexer) advance(n int) {
	for i := 0; i < n; i++ {
		if l.src[l.pos] == '\n' {
			l.line++
			l.col = 1
		} else {
			l.col++
		}
		l.pos++
	}
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.advance(1)
			continue
		}
		if strings.HasPrefix(l.src[l.pos:], "//") {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.advance(1)
			}
			continue
		}
		if strings.HasPrefix(l.src[l.pos:], "/*") {
			l.advance(2)
			for l.pos < len(l.src) && !strings.HasPrefix(l.src[l.pos:], "*/") {
				l.advance(1)
			}
			if l.pos < len(l.src) {
				l.advance(2)
			}
			continue
		}
		return
	}
}

func (l *lexer) lexString() error {
	startLine, startCol := l.line, l.col
	// Use strconv to handle escapes: find the closing quote respecting \".
	i := l.pos + 1
	for i < len(l.src) {
		if l.src[i] == '\\' {
			i += 2
			continue
		}
		if l.src[i] == '"' {
			break
		}
		i++
	}
	if i >= len(l.src) {
		return &Error{Line: startLine, Col: startCol, Msg: "unterminated string literal"}
	}
	raw := l.src[l.pos : i+1]
	s, err := strconv.Unquote(raw)
	if err != nil {
		return &Error{Line: startLine, Col: startCol, Msg: "bad string literal: " + err.Error()}
	}
	l.emit(token{kind: tokString, text: raw, str: s, line: startLine, col: startCol})
	l.advance(i + 1 - l.pos)
	return nil
}

func (l *lexer) lexInt() error {
	start := l.pos
	startLine, startCol := l.line, l.col
	for l.pos < len(l.src) && unicode.IsDigit(rune(l.src[l.pos])) {
		l.advance(1)
	}
	text := l.src[start:l.pos]
	v, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return &Error{Line: startLine, Col: startCol, Msg: fmt.Sprintf("bad number %q", text)}
	}
	l.emit(token{kind: tokInt, text: text, int: v, line: startLine, col: startCol})
	return nil
}

func (l *lexer) lexIdent() {
	start := l.pos
	startLine, startCol := l.line, l.col
	for l.pos < len(l.src) {
		c := rune(l.src[l.pos])
		if unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_' {
			l.advance(1)
		} else {
			break
		}
	}
	l.emit(token{kind: tokIdent, text: l.src[start:l.pos], line: startLine, col: startCol})
}

func (l *lexer) lexPunct() bool {
	for _, p := range punctuation {
		if strings.HasPrefix(l.src[l.pos:], p) {
			l.emit(token{kind: tokPunct, text: p, line: l.line, col: l.col})
			l.advance(len(p))
			return true
		}
	}
	return false
}
