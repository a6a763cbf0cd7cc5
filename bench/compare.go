package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"slices"
)

// runRecord is one run in a result-set file.
type runRecord struct {
	Workload string    `json:"workload"`
	Seed     uint64    `json:"seed"`
	Seconds  float64   `json:"seconds"`
	Trace    int       `json:"trace"`
	Result   runResult `json:"result"`
}

// resultSet is what -json accumulates and -compare reads: every run made
// of one version of the code.
type resultSet struct {
	Runs []runRecord `json:"runs"`
}

func readResultSet(path string) (resultSet, error) {
	var rs resultSet
	b, err := os.ReadFile(path)
	if err != nil {
		return rs, err
	}
	if err := json.Unmarshal(b, &rs); err != nil {
		return rs, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

func appendResult(path string, rec runRecord) error {
	rs, err := readResultSet(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	rs.Runs = append(rs.Runs, rec)
	b, err := json.MarshalIndent(rs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// values collects one end-to-end metric of one workload over a set's runs.
func (rs resultSet) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range rs.Runs {
		if m, ok := r.Result.Metrics[metric]; ok && r.Workload == workload && r.Trace == 0 {
			out = append(out, m.Value)
		}
	}
	return out
}

// comparison is one metric of one workload across two result sets.
type comparison struct {
	medA, medB float64
	worse      float64 // relative worsening of B's median against A's
	spread     float64 // the wider of the two sets' own quartile spreads
	verdict    string
}

// compareRuns applies one metric's bound to the runs of a baseline (a) and
// a candidate (b):
//
//   - regressed: b's median is worse than a's by more than the bound;
//   - unresolved: either side's own quartile spread is wider than the
//     bound and the two ranges overlap, so the runs cannot tell;
//   - within: otherwise.
func compareRuns(def metricDef, a, b []float64) comparison {
	var c comparison
	lo, hi := [2]float64{}, [2]float64{}
	for i, v := range [][]float64{a, b} {
		q1, q2, q3 := quartiles(v)
		if s := (q3 - q1) / q2; s > c.spread {
			c.spread = s
		}
		if i == 0 {
			c.medA = q2
		} else {
			c.medB = q2
		}
		lo[i], hi[i] = slices.Min(v), slices.Max(v)
	}
	c.worse = (c.medB - c.medA) / c.medA
	if def.Better == "higher" {
		c.worse = -c.worse
	}
	overlap := lo[0] <= hi[1] && lo[1] <= hi[0]
	switch {
	case c.spread > def.Bound && overlap:
		c.verdict = "unresolved"
	case c.worse > def.Bound:
		c.verdict = "regressed"
	default:
		c.verdict = "within"
	}
	return c
}

// compareFiles prints one row per workload x end-to-end metric and reports
// whether any row regressed.
func compareFiles(out io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readResultSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResultSet(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "%-8s %-18s %5s %14s %14s %8s %8s %6s  %s\n",
		"workload", "metric", "runs", "median A", "median B", "worse", "spread", "bound", "verdict")
	for _, w := range workloads {
		for _, def := range endToEnd {
			va, vb := a.values(w.name, def.Name), b.values(w.name, def.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(out, "%-8s %-18s %5s %14s %14s %8s %8s %6s  %s\n",
					w.name, def.Name, fmt.Sprintf("%d/%d", len(va), len(vb)), "-", "-", "-", "-", "-", "missing")
				continue
			}
			c := compareRuns(def, va, vb)
			fmt.Fprintf(out, "%-8s %-18s %5s %14.6g %14.6g %+7.2f%% %7.2f%% %5.0f%%  %s\n",
				w.name, def.Name, fmt.Sprintf("%d/%d", len(va), len(vb)), c.medA, c.medB, 100*c.worse, 100*c.spread, 100*def.Bound, c.verdict)
			if c.verdict == "regressed" {
				regressed = true
			}
		}
	}
	return regressed, nil
}
