// Package apps contains the five evaluation applications of the paper's §VI,
// written in the mini-language, together with their schemas, synthetic data
// generators (sized-down versions of the paper's datasets, same
// distributions), and the Table I applicability corpus.
//
// Substitutions relative to the paper: RUBiS and RUBBoS are represented by
// the specific query-in-loop kernels the paper measures; the
// category-traversal and value-range-expansion programs are from [3] as
// in the paper; the Freebase web service of Experiment 5 is a high-RTT
// profile of the same simulated server.
package apps

import (
	"fmt"
	"math/rand"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/minilang"
	"repro/internal/server"
	"repro/internal/storage"
)

// App bundles one evaluation application.
type App struct {
	// Name identifies the app (rubis, rubbos, category, forms, webservice).
	Name string
	// Source is the mini-language kernel the paper measures.
	Source string
	// Setup creates and loads the tables on a fresh server.
	Setup func(s *server.Server, rng *rand.Rand) error
	// Sigs declares app-specific functions for dataflow analysis.
	Sigs []*ir.FuncSig
	// Bind registers app-specific builtins on an interpreter.
	Bind func(in *interp.Interp, rng *rand.Rand)
	// Args builds the kernel's arguments for a run of n iterations.
	Args func(n int, rng *rand.Rand) []interp.Value
	// MutatesData marks apps whose run changes table contents (forms), so
	// harnesses reload between runs.
	MutatesData bool
	// ShardKeys declares each table's shard key column (table -> column) for
	// sharded execution (internal/shard). Tables not listed are replicated.
	ShardKeys map[string]string
}

// Proc parses the app's kernel.
func (a *App) Proc() *ir.Proc { return minilang.MustParse(a.Source) }

// Registry returns a function registry extended with the app's signatures,
// for use by both the transformation and the interpreter.
func (a *App) Registry() *ir.Registry {
	reg := ir.NewRegistry()
	for _, s := range a.Sigs {
		reg.Register(s)
	}
	return reg
}

// All lists the five applications.
func All() []*App {
	return []*App{RUBiS(), RUBBoS(), Category(), Forms(), WebServiceApp()}
}

// Dataset scale. The paper uses 600k comments / 1M users / 10M items; we
// load the same shapes at reduced cardinality (documented substitution) —
// the latency model, not the byte count, carries the performance behaviour.
const (
	numUsers      = 400_000
	numComments   = 60_000
	numStories    = 40_000
	numCategories = 1_000
	numItems      = 400_000
	numDirectors  = 2_000
	numMovies     = 40_000
)

// SeededRand returns the deterministic generator used across the harness.
func SeededRand() *rand.Rand { return rand.New(rand.NewSource(20110411)) } // ICDE 2011

// LoadPointTable creates table(id int, val string) on srv, fills it with rows
// 1..rows ("v<id>") and indexes id uniquely: the point-read "load" table the
// load generator drives (experiments.Serve partitions it from a reference
// server) and, empty, the insert storm's "events" table.
func LoadPointTable(srv *server.Server, table string, rows int) error {
	schema := storage.NewSchema(
		storage.Column{Name: "id", Type: storage.TInt},
		storage.Column{Name: "val", Type: storage.TString},
	)
	if err := srv.CreateTable(table, schema, 0); err != nil {
		return err
	}
	for i := 1; i <= rows; i++ {
		if err := srv.InsertRow(table, []any{int64(i), fmt.Sprintf("v%d", i)}); err != nil {
			return err
		}
	}
	srv.FinishLoad()
	return srv.AddIndex(table, "id", true)
}
