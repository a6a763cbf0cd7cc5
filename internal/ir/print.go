package ir

import (
	"fmt"
	"strconv"
	"strings"
)

// Print renders a procedure in the mini-language concrete syntax. The output
// round-trips through internal/minilang's parser, which is how transformed
// programs are persisted and how tests compare structures.
func Print(p *Proc) string {
	var b strings.Builder
	fmt.Fprintf(&b, "proc %s(%s) {\n", p.Name, strings.Join(p.Params, ", "))
	for _, q := range p.Queries {
		fmt.Fprintf(&b, "  query %s = %s;\n", q.Name, strconv.Quote(q.SQL))
	}
	printBlock(&b, p.Body, 1)
	b.WriteString("}\n")
	return b.String()
}

// PrintStmt renders a single statement on one line (compound statements are
// rendered multi-line).
func PrintStmt(s Stmt) string {
	var b strings.Builder
	printStmt(&b, s, 0)
	return strings.TrimRight(b.String(), "\n")
}

func printBlock(b *strings.Builder, blk *Block, depth int) {
	if blk == nil {
		return
	}
	for _, s := range blk.Stmts {
		printStmt(b, s, depth)
	}
}

func printStmt(b *strings.Builder, s Stmt, depth int) {
	ind := strings.Repeat("  ", depth)
	if g := s.GetGuard(); g != nil {
		ind += g.String() + " ? "
	} else {
		// keep indentation
	}
	switch x := s.(type) {
	case *Assign:
		fmt.Fprintf(b, "%s%s = %s;\n", ind, strings.Join(x.Lhs, ", "), PrintExpr(x.Rhs))
	case *ExecQuery:
		if x.Kind == QueryUpdate && x.Lhs == "" {
			fmt.Fprintf(b, "%sexecUpdate(%s);\n", ind, printQueryArgs(x.Query, x.Args))
		} else {
			fmt.Fprintf(b, "%s%s = %s(%s);\n", ind, x.Lhs, x.Kind, printQueryArgs(x.Query, x.Args))
		}
	case *Submit:
		fn := "submit"
		if x.Kind == QueryUpdate {
			fn = "submitUpdate"
		}
		fmt.Fprintf(b, "%s%s = %s(%s);\n", ind, x.Lhs, fn, printQueryArgs(x.Query, x.Args))
	case *Fetch:
		if x.Lhs == "" {
			fmt.Fprintf(b, "%sfetch(%s);\n", ind, PrintExpr(x.Handle))
		} else {
			fmt.Fprintf(b, "%s%s = fetch(%s);\n", ind, x.Lhs, PrintExpr(x.Handle))
		}
	case *CallStmt:
		fmt.Fprintf(b, "%s%s;\n", ind, PrintExpr(x.Call))
	case *Return:
		if len(x.Vals) == 0 {
			fmt.Fprintf(b, "%sreturn;\n", ind)
		} else {
			parts := make([]string, len(x.Vals))
			for i, v := range x.Vals {
				parts[i] = PrintExpr(v)
			}
			fmt.Fprintf(b, "%sreturn %s;\n", ind, strings.Join(parts, ", "))
		}
	case *DeclTable:
		fmt.Fprintf(b, "%stable %s;\n", ind, x.Name)
	case *NewRecord:
		fmt.Fprintf(b, "%srecord %s;\n", ind, x.Name)
	case *SetField:
		fmt.Fprintf(b, "%s%s.%s = %s;\n", ind, x.Record, x.Field, PrintExpr(x.Val))
	case *AppendRecord:
		fmt.Fprintf(b, "%sappend(%s, %s);\n", ind, x.Table, x.Record)
	case *LoadField:
		fmt.Fprintf(b, "%sload %s = %s.%s;\n", ind, x.Var, x.Record, x.Field)
	case *CopyField:
		fmt.Fprintf(b, "%scopy %s.%s = %s.%s;\n", ind, x.DstRec, x.DstField, x.SrcRec, x.SrcField)
	case *While:
		fmt.Fprintf(b, "%swhile (%s) {\n", ind, PrintExpr(x.Cond))
		printBlock(b, x.Body, depth+1)
		fmt.Fprintf(b, "%s}\n", strings.Repeat("  ", depth))
	case *If:
		fmt.Fprintf(b, "%sif (%s) {\n", ind, PrintExpr(x.Cond))
		printBlock(b, x.Then, depth+1)
		if x.Else != nil {
			fmt.Fprintf(b, "%s} else {\n", strings.Repeat("  ", depth))
			printBlock(b, x.Else, depth+1)
		}
		fmt.Fprintf(b, "%s}\n", strings.Repeat("  ", depth))
	case *ForEach:
		fmt.Fprintf(b, "%sforeach %s in %s {\n", ind, x.Var, PrintExpr(x.Coll))
		printBlock(b, x.Body, depth+1)
		fmt.Fprintf(b, "%s}\n", strings.Repeat("  ", depth))
	case *Scan:
		fmt.Fprintf(b, "%sscan %s in %s {\n", ind, x.Record, x.Table)
		printBlock(b, x.Body, depth+1)
		fmt.Fprintf(b, "%s}\n", strings.Repeat("  ", depth))
	default:
		fmt.Fprintf(b, "%s/* unknown stmt %T */\n", ind, s)
	}
}

func printQueryArgs(q string, args []Expr) string {
	parts := []string{q}
	for _, a := range args {
		parts = append(parts, PrintExpr(a))
	}
	return strings.Join(parts, ", ")
}

// PrintExpr renders an expression with minimal but correct parenthesization.
func PrintExpr(e Expr) string {
	return printExpr(e, 0)
}

// precedence levels: || =1, && =2, comparisons =3, + - =4, * / % =5, unary =6
func prec(op string) int {
	switch op {
	case "||":
		return 1
	case "&&":
		return 2
	case "==", "!=", "<", "<=", ">", ">=":
		return 3
	case "+", "-":
		return 4
	case "*", "/", "%":
		return 5
	}
	return 0
}

func printExpr(e Expr, parent int) string {
	switch x := e.(type) {
	case *Var:
		return x.Name
	case *Lit:
		switch v := x.V.(type) {
		case nil:
			return "null"
		case bool:
			return strconv.FormatBool(v)
		case int64:
			return strconv.FormatInt(v, 10)
		case string:
			return strconv.Quote(v)
		default:
			return fmt.Sprintf("%v", v)
		}
	case *Bin:
		p := prec(x.Op)
		s := printExpr(x.L, p) + " " + x.Op + " " + printExpr(x.R, p+1)
		if p < parent {
			return "(" + s + ")"
		}
		return s
	case *Un:
		s := x.Op + printExpr(x.X, 6)
		if parent > 6 {
			return "(" + s + ")"
		}
		return s
	case *Call:
		parts := make([]string, len(x.Args))
		for i, a := range x.Args {
			parts[i] = printExpr(a, 0)
		}
		return x.Fn + "(" + strings.Join(parts, ", ") + ")"
	case nil:
		return "<nil>"
	}
	return fmt.Sprintf("<expr %T>", e)
}
