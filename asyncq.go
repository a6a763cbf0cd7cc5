// Package asyncq automatically rewrites database application programs that
// issue blocking (synchronous) queries from loops into equivalent programs
// that submit the queries asynchronously and fetch the results later — the
// program transformations of Chavan, Guravannavar, Ramachandra and
// Sudarshan, "Program Transformations for Asynchronous Query Submission"
// (ICDE 2011).
//
// Programs are written in a small imperative mini-language (see package
// documentation in internal/minilang for the grammar); Transform returns the
// rewritten source. The transformation is driven by a statement-level data
// dependence graph and applies:
//
//   - Rule A, loop fission: the loop is split into a submit loop and a
//     fetch/consume loop connected by a keyed record table, cut through the
//     query or — for an enclosing loop (nested-loop fission) — at the
//     boundary the inner fission leaves behind;
//   - Rule B, control-dependence conversion: conditionals around the query
//     become guarded statements so fission can cut through them;
//   - statement reordering (Rule C stubs + the reorder algorithm), which
//     removes loop-carried flow dependences crossing the split whenever the
//     query is not on a true-dependence cycle.
//
// The package also provides the asynchronous client runtime (worker pool +
// handles, the observer model) and an interpreter to execute both original
// and transformed programs against any QueryService.
//
// Batched submission — the sibling of asynchronous submission in the paper —
// rides the same transformed programs: NewBatchedPool returns a service
// whose submissions are coalesced into set-oriented batches (one round trip
// and one planning charge per batch, demultiplexed back onto the individual
// handles; see internal/batch). Transformed programs run unchanged on
// either service and produce identical results.
//
// Beyond one server, the internal/shard router partitions tables by a
// declared shard key across N independent backends: point statements route
// to the owning shard, everything else scatter-gathers with a deterministic
// merge, and batched submissions split into per-shard sub-batches that
// execute in parallel. Because the router exposes the same Runner and
// BatchRunner shapes as a single server, a transformed program moves from
// one server to an N-shard cluster by handing NewPool or NewBatchedPool the
// router's Exec and ExecBatch instead of the server's — and still produces
// identical results.
package asyncq

import (
	"fmt"
	"sync"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/minilang"
	"repro/internal/query"
)

// Options control the transformation.
type Options struct {
	// Readable applies the §V regrouping pass, folding guarded statements
	// back into if blocks. Default on in Transform.
	Readable bool
	// OnlyQueries limits transformation to the named prepared queries.
	OnlyQueries []string
	// Funcs declares extra application functions for dataflow analysis.
	Funcs []FuncSig
}

// FuncSig declares an application function's dataflow behaviour.
type FuncSig struct {
	Name string
	// NArgs is the arity (-1 variadic); NRet the number of results.
	NArgs, NRet int
	// MutatesArgs lists argument positions modified in place.
	MutatesArgs []int
	// ReadsDB / WritesDB / WritesIO declare external effects.
	ReadsDB, WritesDB, WritesIO bool
	// Barrier marks calls that can never be reordered or split across
	// (e.g. recursive methods that themselves run queries).
	Barrier bool
}

// Site reports the outcome for one loop containing query executions.
type Site struct {
	Loop        string
	Queries     int
	Converted   int
	UsedReorder bool
	UsedRuleB   bool
	Reasons     []string
}

// Report summarizes a transformation (the applicability analysis of the
// paper's Table I).
type Report struct {
	Proc  string
	Sites []Site
}

// Opportunities counts loops containing query executions.
func (r *Report) Opportunities() int { return len(r.Sites) }

// Transformed counts exploited loops.
func (r *Report) Transformed() int {
	n := 0
	for _, s := range r.Sites {
		if s.Converted > 0 {
			n++
		}
	}
	return n
}

// Transform rewrites src for asynchronous query submission with default
// options (readable output) and returns the transformed source plus the
// per-site report. Nested loops are always split (§III-D).
func Transform(src string) (string, *Report, error) {
	return TransformWithOptions(src, Options{Readable: true})
}

// TransformWithOptions is Transform with explicit options.
func TransformWithOptions(src string, opt Options) (string, *Report, error) {
	proc, err := minilang.Parse(src)
	if err != nil {
		return "", nil, err
	}
	reg := buildRegistry(opt.Funcs)
	out, rep, err := core.Transform(proc, core.Options{
		Registry:    reg,
		Readable:    opt.Readable,
		OnlyQueries: opt.OnlyQueries,
	})
	if err != nil {
		return "", nil, err
	}
	return ir.Print(out), convertReport(rep), nil
}

// Analyze reports applicability without returning rewritten code.
func Analyze(src string, opt Options) (*Report, error) {
	proc, err := minilang.Parse(src)
	if err != nil {
		return nil, err
	}
	rep := core.Analyze(proc, core.Options{
		Registry:    buildRegistry(opt.Funcs),
		OnlyQueries: opt.OnlyQueries,
	})
	return convertReport(rep), nil
}

// DDG returns the Graphviz dot rendering of the data dependence graph of
// the n-th loop (0-based) in src, including external and loop-carried
// dependences — the paper's Figure 1 view.
func DDG(src string, loopIndex int) (string, error) {
	proc, err := minilang.Parse(src)
	if err != nil {
		return "", err
	}
	reg := ir.NewRegistry()
	n := -1
	var out string
	ir.WalkStmts(proc.Body, func(s ir.Stmt) {
		switch s.(type) {
		case *ir.While, *ir.ForEach, *ir.Scan:
			n++
			if n == loopIndex && out == "" {
				out = dataflow.BuildLoop(s, reg).Dot(fmt.Sprintf("%s_loop%d", proc.Name, n))
			}
		}
	})
	if out == "" {
		return "", fmt.Errorf("asyncq: no loop %d in %s", loopIndex, proc.Name)
	}
	return out, nil
}

func buildRegistry(funcs []FuncSig) *ir.Registry {
	reg := ir.NewRegistry()
	for _, f := range funcs {
		var ext ir.External
		if f.ReadsDB {
			ext |= ir.ExtReadsDB
		}
		if f.WritesDB {
			ext |= ir.ExtWritesDB
		}
		if f.WritesIO {
			ext |= ir.ExtIO
		}
		reg.Register(&ir.FuncSig{
			Name: f.Name, NArgs: f.NArgs, NRet: f.NRet,
			MutatesArgs: f.MutatesArgs, External: ext, Barrier: f.Barrier,
		})
	}
	return reg
}

func convertReport(rep *core.Report) *Report {
	out := &Report{Proc: rep.Proc}
	for _, s := range rep.Sites {
		out.Sites = append(out.Sites, Site{
			Loop: s.Loop, Queries: s.Queries, Converted: s.Converted,
			UsedReorder: s.UsedReorder, UsedRuleB: s.UsedFlatten,
			Reasons: s.Reasons,
		})
	}
	return out
}

// --- Runtime ---

// Value is a runtime value of the mini-language (int64, string, bool, nil,
// lists, rows).
type Value = interp.Value

// Handle is a pending asynchronous query (observer model): Fetch blocks
// until the result is ready.
type Handle = interp.Handle

// QueryService executes queries for programs run with Run: Exec is the
// blocking path, Submit the asynchronous one.
type QueryService = interp.QueryService

// Request is one query execution request: statement name, SQL, bindings,
// plus optional trace span and deadline. Every
// layer of the runtime — executor, coalescer, server, shard router, replica
// group, network front door — speaks this one shape.
type Request = query.Request

// Result is a Request's outcome.
type Result = query.Result

// BatchRequest is the set-oriented Request: one prepared statement, many
// parameter bindings, one round trip.
type BatchRequest = query.BatchRequest

// BatchResult holds one value and one error per binding, in binding order.
type BatchResult = query.BatchResult

// Ok wraps a successful result value.
func Ok(v any) Result { return query.Ok(v) }

// Fail wraps a failed execution.
func Fail(err error) Result { return query.Fail(err) }

// Runner executes a single query; used to build services and pools.
type Runner = exec.Runner

// Service is the QueryService NewPool and NewBatchedPool return: Submit
// goes through the worker pool, Exec runs on the calling goroutine. Close it
// to drain the pool.
type Service = exec.Service

// NewPool returns a QueryService backed by `workers` concurrent executors of
// run — the runtime the transformed programs use. With workers 0 submissions
// execute synchronously, like the original program's blocking calls.
func NewPool(workers int, run Runner) *Service {
	return exec.NewService(workers, run)
}

// BatchRunner executes one prepared statement against a set of parameter
// bindings in a single round trip (the set-oriented sibling of Runner).
type BatchRunner = exec.BatchRunner

// NewBatchedPool returns a QueryService like NewPool whose submissions are
// additionally coalesced into set-oriented batches of up to maxBatch
// requests per prepared statement, executed through runBatch. A statement's
// first submission leaves at once; later ones gather while its batch is in
// flight and leave when that batch returns, or sooner once maxBatch are
// waiting. maxBatch 0 uses the default batch size; any other maxBatch below
// 2, a nil runBatch, or workers 0 (synchronous execution) leaves nothing to
// coalesce and the service is exactly NewPool's. Transformed programs need
// no changes and produce results identical to the per-query pool.
func NewBatchedPool(workers int, run Runner, runBatch BatchRunner, maxBatch int) *Service {
	return batch.NewService(workers, run, runBatch, batch.Options{MaxBatch: maxBatch})
}

// List builds a mini-language list value for program arguments.
func List(items ...Value) Value { return interp.NewList(items...) }

// Row builds a mini-language row value (query-result record).
func Row(fields map[string]Value) Value {
	r := interp.Row{}
	for k, v := range fields {
		r[k] = v
	}
	return r
}

// Rows builds a list-of-rows value.
func Rows(rows ...interp.Row) Value { return interp.Rows(rows) }

// FormatValue renders a value deterministically.
func FormatValue(v Value) string { return interp.Format(v) }

// RunResult is the outcome of running a program.
type RunResult struct {
	Returned []Value
	Output   string
}

// Run executes a mini-language program against svc with the given
// positional arguments. Both original and transformed programs run through
// the same entry point; transformed programs need a service whose Submit is
// backed by a pool (NewPool). Programs are parsed and slot-compiled once
// per distinct source and cached, so callers that run the same program
// millions of times pay compilation on the first call only.
func Run(src string, args []Value, svc QueryService, funcs ...FuncSig) (*RunResult, error) {
	prog, err := compiledProgram(src)
	if err != nil {
		return nil, err
	}
	in := interp.New(buildRegistry(funcs), svc)
	res, err := in.RunProgram(prog, args)
	if err != nil {
		return nil, err
	}
	return &RunResult{Returned: res.Returned, Output: res.Output}, nil
}

// progCache caches compiled programs by source text. The cache is bounded:
// when it reaches progCacheMax entries it is reset wholesale, which keeps
// the common case (a handful of programs run repeatedly) fast without
// letting adversarial call patterns grow memory without bound.
const progCacheMax = 256

var (
	progMu    sync.Mutex
	progCache = make(map[string]*interp.Program)
)

func compiledProgram(src string) (*interp.Program, error) {
	progMu.Lock()
	prog, ok := progCache[src]
	progMu.Unlock()
	if ok {
		return prog, nil
	}
	proc, err := minilang.Parse(src)
	if err != nil {
		return nil, err
	}
	prog = interp.Compile(proc)
	progMu.Lock()
	if len(progCache) >= progCacheMax {
		progCache = make(map[string]*interp.Program)
	}
	progCache[src] = prog
	progMu.Unlock()
	return prog, nil
}
