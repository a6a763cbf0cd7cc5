package server

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/query"
	"repro/internal/sqlmini"
	"repro/internal/storage"
)

func loaded(t *testing.T) *Server {
	t.Helper()
	s := New(SYS1(), 0) // no sleeping: logic only
	tbl := s.Catalog().CreateTable("kv", storage.NewSchema(
		storage.Column{Name: "k", Type: storage.TInt},
		storage.Column{Name: "v", Type: storage.TInt},
	))
	for i := int64(0); i < 500; i++ {
		if _, err := tbl.Insert([]any{i, i * 2}); err != nil {
			t.Fatal(err)
		}
	}
	s.FinishLoad()
	if err := s.AddIndex("kv", "k", true); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestExecSelect(t *testing.T) {
	s := loaded(t)
	defer s.Close()
	v, err := s.Exec(query.Req("q", "select sum(v) from kv where k = ?", []any{int64(21)})).Pair()
	if err != nil {
		t.Fatal(err)
	}
	if v != int64(42) {
		t.Fatalf("got %v", v)
	}
	if st := s.Stats(); st.Queries != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestExecInsertAndStats(t *testing.T) {
	s := loaded(t)
	defer s.Close()
	if _, err := s.Exec(query.Req("ins", "insert into kv values (?, ?)", []any{int64(9000), int64(1)})).Pair(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Inserts != 1 {
		t.Fatalf("stats: %+v", st)
	}
	v, err := s.Exec(query.Req("q", "select count(v) from kv where k = ?", []any{int64(9000)})).Pair()
	if err != nil || v != int64(1) {
		t.Fatalf("%v %v", v, err)
	}
}

func TestWarmVsColdHits(t *testing.T) {
	s := loaded(t)
	defer s.Close()
	s.Warm()
	for i := int64(0); i < 50; i++ {
		if _, err := s.Exec(query.Req("q", "select sum(v) from kv where k = ?", []any{i * 7 % 500})).Pair(); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.BufferMiss != 0 {
		t.Fatalf("warm run missed %d pages", st.BufferMiss)
	}
	s.ColdStart()
	if _, err := s.Exec(query.Req("q", "select sum(v) from kv where k = ?", []any{int64(3)})).Pair(); err != nil {
		t.Fatal(err)
	}
	if _, m := s.Pool().Stats(); m == 0 {
		t.Fatal("cold run should miss")
	}
}

func TestPreparedStatementCache(t *testing.T) {
	s := loaded(t)
	defer s.Close()
	for i := 0; i < 10; i++ {
		if _, err := s.Exec(query.Req("q", "select sum(v) from kv where k = ?", []any{int64(i)})).Pair(); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.prep.Len(); n != 1 {
		t.Fatalf("prepared cache has %d entries, want 1", n)
	}
	// Literals make the distinct statements unbounded; the cache is not.
	for i := 0; i < 2*sqlmini.MaxPrepared; i++ {
		sql := fmt.Sprintf("select sum(v) from kv where k = %d", i)
		want, _ := s.Exec(query.Req("q", "select sum(v) from kv where k = ?", []any{int64(i)})).Pair()
		if got, err := s.Exec(query.Req("q", sql, nil)).Pair(); err != nil || got != want {
			t.Fatalf("%s: %v, %v; want %v", sql, got, err, want)
		}
	}
	if n := s.prep.Len(); n != sqlmini.MaxPrepared {
		t.Fatalf("prepared cache has %d entries after %d distinct statements, want the bound %d",
			n, 2*sqlmini.MaxPrepared, sqlmini.MaxPrepared)
	}
}

func TestConcurrentExec(t *testing.T) {
	s := loaded(t)
	defer s.Close()
	s.Warm()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := int64((g*50 + i) % 500)
				v, err := s.Exec(query.Req("q", "select sum(v) from kv where k = ?", []any{k})).Pair()
				if err != nil {
					errs <- err
					return
				}
				if v != k*2 {
					errs <- err
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Queries != 400 {
		t.Fatalf("queries = %d", st.Queries)
	}
}

func TestBadSQLError(t *testing.T) {
	s := loaded(t)
	defer s.Close()
	if _, err := s.Exec(query.Req("bad", "frobnicate the database", nil)).Pair(); err == nil {
		t.Fatal("want parse error")
	}
}

func TestProfiles(t *testing.T) {
	for _, p := range []Profile{SYS1(), Postgres(), WebService()} {
		if p.Cores < 1 || p.RTT <= 0 || p.BufferPages <= 0 {
			t.Errorf("profile %s has degenerate parameters: %+v", p.Name, p)
		}
	}
	if WebService().RTT <= SYS1().RTT {
		t.Error("the web-service profile must have wide-area latency")
	}
}

func TestExecBatchMatchesExec(t *testing.T) {
	s := loaded(t)
	defer s.Close()
	argSets := [][]any{{int64(1)}, {int64(21)}, {int64(499)}, {int64(9999)}}
	vals, errs := s.ExecBatch(query.BatchReq("q", "select sum(v) from kv where k = ?", argSets)).Pair()
	if len(vals) != len(argSets) || len(errs) != len(argSets) {
		t.Fatalf("arity: %d vals, %d errs", len(vals), len(errs))
	}
	for i, args := range argSets {
		want, wantErr := s.Exec(query.Req("q", "select sum(v) from kv where k = ?", args)).Pair()
		if (errs[i] == nil) != (wantErr == nil) || vals[i] != want {
			t.Fatalf("binding %d: (%v, %v), want (%v, %v)", i, vals[i], errs[i], want, wantErr)
		}
	}
}

func TestExecBatchOneRoundTripAndPlanning(t *testing.T) {
	s := loaded(t)
	defer s.Close()
	if _, errs := s.ExecBatch(query.BatchReq("q", "select sum(v) from kv where k = ?", [][]any{{int64(1)}, {int64(2)}, {int64(3)}})).Pair(); errs[0] != nil || errs[1] != nil || errs[2] != nil {
		t.Fatalf("batch errors: %v", errs)
	}
	st := s.Stats()
	if st.NetRequests != 1 {
		t.Fatalf("batch paid %d round trips, want 1", st.NetRequests)
	}
	if st.Batches != 1 {
		t.Fatalf("batches = %d, want 1", st.Batches)
	}
	if st.Queries != 3 {
		t.Fatalf("logical queries = %d, want 3", st.Queries)
	}
	// A per-query run of the same statements pays three round trips.
	for i := int64(1); i <= 3; i++ {
		if _, err := s.Exec(query.Req("q", "select sum(v) from kv where k = ?", []any{i})).Pair(); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.NetRequests != 4 {
		t.Fatalf("net requests = %d, want 4", st.NetRequests)
	}
}

func TestExecBatchParseError(t *testing.T) {
	s := loaded(t)
	defer s.Close()
	_, errs := s.ExecBatch(query.BatchReq("bad", "frobnicate the database", [][]any{nil, nil})).Pair()
	if len(errs) != 2 || errs[0] == nil || errs[1] == nil {
		t.Fatalf("want parse error per binding: %v", errs)
	}
}

// TestExecBatchSharedBufferAccesses asserts the cold-cache saving the
// batched experiment relies on: duplicate keys in one batch fault their
// pages once.
func TestExecBatchSharedBufferAccesses(t *testing.T) {
	s := loaded(t)
	defer s.Close()
	s.ColdStart()
	if _, err := s.Exec(query.Req("q", "select sum(v) from kv where k = ?", []any{int64(7)})).Pair(); err != nil {
		t.Fatal(err)
	}
	_, missesSingle := s.Pool().Stats()

	s.ColdStart()
	_, errs := s.ExecBatch(query.BatchReq("q", "select sum(v) from kv where k = ?", [][]any{{int64(7)}, {int64(7)}, {int64(7)}})).Pair()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, misses := s.Pool().Stats(); misses != missesSingle {
		t.Fatalf("batch of duplicates missed %d pages, single query missed %d", misses, missesSingle)
	}
}

// TestRoundTripsCountedOnErrorPaths: the RTT is paid before the statement
// runs, so failing statements must still count their round trips — both
// submission modes, symmetrically.
func TestRoundTripsCountedOnErrorPaths(t *testing.T) {
	s := loaded(t)
	defer s.Close()
	if _, err := s.Exec(query.Req("bad", "select sum(v) from nosuch where k = ?", []any{int64(1)})).Pair(); err == nil {
		t.Fatal("want error")
	}
	if st := s.Stats(); st.NetRequests != 1 {
		t.Fatalf("failed Exec counted %d round trips, want 1", st.NetRequests)
	}
	_, errs := s.ExecBatch(query.BatchReq("bad", "frobnicate", [][]any{nil, nil})).Pair()
	if errs[0] == nil {
		t.Fatal("want parse error")
	}
	if st := s.Stats(); st.NetRequests != 2 || st.Batches != 1 {
		t.Fatalf("failed ExecBatch accounting: %+v", st)
	}
}
