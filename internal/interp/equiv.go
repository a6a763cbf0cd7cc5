package interp

import "fmt"

// Equivalent reports whether two values from *separate runs* are
// observationally equivalent. Equal compares handles, records and tables by
// identity, which is right within one run but useless for differential
// testing of two evaluators: each run materialises its own handles and
// records. Equivalent compares handles by their fetched results (Fetch is
// idempotent), records field-wise and tables record-wise; everything else
// falls back to Equal.
func Equivalent(a, b Value) bool {
	switch x := a.(type) {
	case Handle:
		y, ok := b.(Handle)
		if !ok {
			return false
		}
		xv, xerr := x.Fetch()
		yv, yerr := y.Fetch()
		if (xerr != nil) != (yerr != nil) {
			return false
		}
		if xerr != nil {
			return xerr.Error() == yerr.Error()
		}
		return Equivalent(xv, yv)
	case *Record:
		y, ok := b.(*Record)
		if !ok || len(x.fields) != len(y.fields) {
			return false
		}
		for _, f := range x.fields {
			w, ok := y.Get(f.name)
			if !ok || !Equivalent(f.val, w) {
				return false
			}
		}
		return true
	case *Table:
		y, ok := b.(*Table)
		if !ok || len(x.Records) != len(y.Records) {
			return false
		}
		for i := range x.Records {
			if !Equivalent(x.Records[i], y.Records[i]) {
				return false
			}
		}
		return true
	case *List:
		y, ok := b.(*List)
		if !ok || len(x.Items) != len(y.Items) {
			return false
		}
		for i := range x.Items {
			if !Equivalent(x.Items[i], y.Items[i]) {
				return false
			}
		}
		return true
	}
	return Equal(a, b)
}

// EquivalentEnv compares two final environments (Result.Env) from separate
// runs, returning a descriptive error on the first mismatch.
func EquivalentEnv(a, b map[string]Value) error {
	if len(a) != len(b) {
		return fmt.Errorf("environment sizes differ: %d vs %d keys", len(a), len(b))
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok {
			return fmt.Errorf("variable %q present in one environment only", k)
		}
		if !Equivalent(v, w) {
			return fmt.Errorf("variable %q differs: %s vs %s", k, Format(v), Format(w))
		}
	}
	return nil
}

// EquivalentResult compares two Results from separate runs of the same
// program: return values, output streams and final environments.
func EquivalentResult(a, b *Result) error {
	if len(a.Returned) != len(b.Returned) {
		return fmt.Errorf("return arity differs: %d vs %d", len(a.Returned), len(b.Returned))
	}
	for i := range a.Returned {
		if !Equivalent(a.Returned[i], b.Returned[i]) {
			return fmt.Errorf("return %d differs: %s vs %s", i,
				Format(a.Returned[i]), Format(b.Returned[i]))
		}
	}
	if a.Output != b.Output {
		return fmt.Errorf("output streams differ:\n--- a ---\n%s--- b ---\n%s", a.Output, b.Output)
	}
	return EquivalentEnv(a.Env, b.Env)
}
