package interp

import (
	"fmt"
	"strings"
)

// bindStdlib installs the implementations for ir.StdSigs.
func (in *Interp) bindStdlib() {
	one := in.one

	in.Bind("empty", func(a []Value) ([]Value, error) {
		l, err := asList(a[0])
		if err != nil {
			return nil, err
		}
		return one(len(l.Items) == 0), nil
	})
	sizeFn := func(a []Value) ([]Value, error) {
		switch x := a[0].(type) {
		case *List:
			return one(int64(len(x.Items))), nil
		case Rows:
			return one(int64(len(x))), nil
		case string:
			return one(int64(len(x))), nil
		}
		return nil, fmt.Errorf("size of %s", TypeName(a[0]))
	}
	in.Bind("size", sizeFn)
	in.Bind("len", sizeFn)
	in.Bind("first", func(a []Value) ([]Value, error) {
		l, err := asList(a[0])
		if err != nil {
			return nil, err
		}
		if len(l.Items) == 0 {
			return nil, fmt.Errorf("first of empty list")
		}
		return one(copyValue(l.Items[0])), nil
	})
	in.Bind("get", func(a []Value) ([]Value, error) {
		l, err := asList(a[0])
		if err != nil {
			return nil, err
		}
		i, err := asInt(a[1])
		if err != nil {
			return nil, err
		}
		if i < 0 || int(i) >= len(l.Items) {
			return nil, fmt.Errorf("index %d out of range [0,%d)", i, len(l.Items))
		}
		return one(copyValue(l.Items[i])), nil
	})
	in.Bind("peek", func(a []Value) ([]Value, error) {
		l, err := asList(a[0])
		if err != nil {
			return nil, err
		}
		if len(l.Items) == 0 {
			return nil, fmt.Errorf("peek of empty list")
		}
		return one(copyValue(l.Items[len(l.Items)-1])), nil
	})
	in.Bind("list", func(a []Value) ([]Value, error) {
		return one(NewList(a...).Copy()), nil
	})
	in.Bind("concat", func(a []Value) ([]Value, error) {
		l1, err := asList(a[0])
		if err != nil {
			return nil, err
		}
		l2, err := asList(a[1])
		if err != nil {
			return nil, err
		}
		out := l1.Copy()
		out.Items = append(out.Items, l2.Copy().Items...)
		return one(out), nil
	})
	in.Bind("min", func(a []Value) ([]Value, error) { return in.cmp2(a, true) })
	in.Bind("max", func(a []Value) ([]Value, error) { return in.cmp2(a, false) })
	in.Bind("field", func(a []Value) ([]Value, error) {
		name, err := asString(a[1])
		if err != nil {
			return nil, err
		}
		switch x := a[0].(type) {
		case Row:
			v, ok := x[name]
			if !ok {
				return nil, fmt.Errorf("row has no column %q", name)
			}
			return one(v), nil
		case Rows:
			if len(x) == 0 {
				return one(nil), nil
			}
			v, ok := x[0][name]
			if !ok {
				return nil, fmt.Errorf("row has no column %q", name)
			}
			return one(v), nil
		}
		return nil, fmt.Errorf("field of %s", TypeName(a[0]))
	})
	in.Bind("rowcount", func(a []Value) ([]Value, error) {
		r, ok := a[0].(Rows)
		if !ok {
			return nil, fmt.Errorf("rowcount of %s", TypeName(a[0]))
		}
		return one(int64(len(r))), nil
	})
	in.Bind("rowat", func(a []Value) ([]Value, error) {
		r, ok := a[0].(Rows)
		if !ok {
			return nil, fmt.Errorf("rowat of %s", TypeName(a[0]))
		}
		i, err := asInt(a[1])
		if err != nil {
			return nil, err
		}
		if i < 0 || int(i) >= len(r) {
			return nil, fmt.Errorf("row index %d out of range", i)
		}
		return one(r[i]), nil
	})
	in.Bind("tostr", func(a []Value) ([]Value, error) {
		return one(Format(a[0])), nil
	})
	in.Bind("divmod", func(a []Value) ([]Value, error) {
		x, err := asInt(a[0])
		if err != nil {
			return nil, err
		}
		y, err := asInt(a[1])
		if err != nil {
			return nil, err
		}
		if y == 0 {
			return nil, fmt.Errorf("divmod by zero")
		}
		return []Value{x / y, x % y}, nil
	})
	in.Bind("hash", func(a []Value) ([]Value, error) {
		s := Format(a[0])
		var h int64 = 1469598103934665603
		for i := 0; i < len(s); i++ {
			h ^= int64(s[i])
			h *= 1099511628211
		}
		if h < 0 {
			h = -h
		}
		return one(h), nil
	})

	// Mutating collection operations.
	in.Bind("removeFirst", func(a []Value) ([]Value, error) {
		l, err := asList(a[0])
		if err != nil {
			return nil, err
		}
		if len(l.Items) == 0 {
			return nil, fmt.Errorf("removeFirst of empty list")
		}
		v := l.Items[0]
		l.Items = l.Items[1:]
		return one(v), nil
	})
	in.Bind("removeLast", func(a []Value) ([]Value, error) {
		l, err := asList(a[0])
		if err != nil {
			return nil, err
		}
		if len(l.Items) == 0 {
			return nil, fmt.Errorf("removeLast of empty list")
		}
		v := l.Items[len(l.Items)-1]
		l.Items = l.Items[:len(l.Items)-1]
		return one(v), nil
	})
	in.Bind("pop", func(a []Value) ([]Value, error) {
		return in.Funcs["removeLast"](a)
	})
	in.Bind("push", func(a []Value) ([]Value, error) {
		l, err := asList(a[0])
		if err != nil {
			return nil, err
		}
		l.Items = append(l.Items, copyValue(a[1]))
		return nil, nil
	})
	in.Bind("add", func(a []Value) ([]Value, error) {
		return in.Funcs["push"](a)
	})
	in.Bind("clear", func(a []Value) ([]Value, error) {
		l, err := asList(a[0])
		if err != nil {
			return nil, err
		}
		l.Items = nil
		return nil, nil
	})

	// I/O.
	printer := func(a []Value) ([]Value, error) {
		parts := make([]string, len(a))
		for i, v := range a {
			parts[i] = Format(v)
		}
		in.Out.WriteString(strings.Join(parts, " "))
		in.Out.WriteByte('\n')
		return nil, nil
	}
	in.Bind("print", printer)
	in.Bind("log", printer)
	in.Bind("process", printer)

	// Opaque helpers from the paper's examples; deterministic defaults that
	// apps and tests may override.
	in.Bind("foo", func(a []Value) ([]Value, error) {
		var acc int64 = 17
		for _, v := range a {
			if i, ok := v.(int64); ok {
				acc = acc*31 + i
			}
		}
		return one(acc), nil
	})
	in.Bind("bar", func(a []Value) ([]Value, error) {
		return in.Funcs["foo"](a)
	})
	in.Bind("getParentCategory", func(a []Value) ([]Value, error) {
		// Integer category hierarchy: parent of c is c/2; 0 and 1 have no
		// parent (null), terminating walks.
		i, err := asInt(a[0])
		if err != nil {
			if a[0] == nil {
				return one(nil), nil
			}
			return nil, err
		}
		if i <= 1 {
			return one(nil), nil
		}
		return one(i / 2), nil
	})
	in.Bind("readInputCategory", func(a []Value) ([]Value, error) {
		return one(int64(100)), nil
	})
	in.Bind("recurse", func(a []Value) ([]Value, error) {
		return one(int64(0)), nil
	})
}

// one returns v as a builtin's only result, through the Interp's result
// slot (see Builtin).
func (in *Interp) one(v Value) []Value {
	in.res[0] = v
	return in.res[:1:1]
}

func (in *Interp) cmp2(a []Value, min bool) ([]Value, error) {
	x, err := asInt(a[0])
	if err != nil {
		return nil, err
	}
	y, err := asInt(a[1])
	if err != nil {
		return nil, err
	}
	if (x < y) == min {
		return in.one(x), nil
	}
	return in.one(y), nil
}

func asList(v Value) (*List, error) {
	l, ok := v.(*List)
	if !ok {
		return nil, fmt.Errorf("want list, got %s", TypeName(v))
	}
	return l, nil
}

func asInt(v Value) (int64, error) {
	i, ok := v.(int64)
	if !ok {
		return 0, fmt.Errorf("want int, got %s", TypeName(v))
	}
	return i, nil
}

func asString(v Value) (string, error) {
	s, ok := v.(string)
	if !ok {
		return "", fmt.Errorf("want string, got %s", TypeName(v))
	}
	return s, nil
}
