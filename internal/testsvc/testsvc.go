// Package testsvc provides a deterministic in-memory query service used by
// the transformation tests and property tests: results are a pure function
// of the query name and arguments, so an original program and its
// transformed version must produce identical outputs regardless of
// submission interleaving.
package testsvc

import (
	"strconv"

	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/query"
)

// Runner returns a thread-safe exec.Runner whose result for (name, args) is
// a small deterministic integer.
func Runner() exec.Runner {
	return func(req query.Request) query.Result {
		return query.Ok(Hash(req.Name, req.Args))
	}
}

// Hash computes the deterministic result value. It folds the bytes of
// name|arg1|arg2|... into an FNV accumulator without materialising the
// string (integer arguments format into a stack buffer), so the hot
// submit/fetch path of the executor benchmarks does not allocate here. The
// values are identical to the original string-building implementation.
func Hash(name string, args []any) int64 {
	h := fnvString(fnvOffset, name)
	for _, a := range args {
		h = fnvByte(h, '|')
		if i, ok := a.(int64); ok {
			var buf [20]byte
			h = fnvBytes(h, strconv.AppendInt(buf[:0], i, 10))
		} else {
			h = fnvString(h, interp.Format(a))
		}
	}
	if h < 0 {
		h = -h
	}
	return h % 97
}

const (
	fnvOffset int64 = 1469598103934665603
	fnvPrime  int64 = 1099511628211
)

func fnvByte(h int64, b byte) int64 { return (h ^ int64(b)) * fnvPrime }

func fnvString(h int64, s string) int64 {
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

func fnvBytes(h int64, s []byte) int64 {
	for _, b := range s {
		h = fnvByte(h, b)
	}
	return h
}

// BatchRunner returns the set-oriented sibling of Runner: every binding
// yields the same deterministic Hash value a per-query execution would.
func BatchRunner() exec.BatchRunner {
	return func(req query.BatchRequest) query.BatchResult {
		vals := make([]any, len(req.ArgSets))
		for i, args := range req.ArgSets {
			vals[i] = Hash(req.Name, args)
		}
		return query.BatchResult{Values: vals, Errs: make([]error, len(req.ArgSets))}
	}
}

// NewSync returns a blocking-only service (original programs).
func NewSync() *exec.Service { return exec.NewService(0, Runner()) }

// NewAsync returns a service with a worker pool (transformed programs).
func NewAsync(workers int) *exec.Service { return exec.NewService(workers, Runner()) }
