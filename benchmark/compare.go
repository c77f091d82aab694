package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Verdicts of one (workload, metric) row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"  // the change's median is worse than the parent's by more than the bound
	verdictUnresolved = "unresolved" // the run-to-run spread is wider than the bound
)

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is what
// the acceptance driver computes; a single value has no spread.
func quartiles(values []float64) (q1, q3 float64) {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n < 2 {
		if n == 1 {
			return sorted[0], sorted[0]
		}
		return 0, 0
	}
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k*(n+1)) / 4 // 1-based position
		j := int(pos)
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return sorted[j-1] + frac*(sorted[j]-sorted[j-1])
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	m := median(values)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(values)
	return (q3 - q1) / m
}

// judge applies one metric's bound to the parent's and the change's runs.
// worse is how far the change's median moved in the bad direction, as a
// share of the parent's median.
func judge(m metric, parent, change []float64) (verdict string, worse, spreadSeen float64) {
	pm, cm := median(parent), median(change)
	if pm != 0 {
		worse = (cm - pm) / pm
		if m.Better == "higher" {
			worse = -worse
		}
	}
	spreadSeen = max(spread(parent), spread(change))
	switch {
	case spreadSeen > m.Bound:
		return verdictUnresolved, worse, spreadSeen
	case worse > m.Bound:
		return verdictRegressed, worse, spreadSeen
	}
	return verdictOK, worse, spreadSeen
}

// side is one results file grouped by workload.
type side struct {
	values map[string]map[string][]float64 // workload -> metric -> one value per run
	fails  map[string][]float64            // workload -> fail_ratio per run
}

func loadSide(path string) (*side, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var results []result
	if err := json.Unmarshal(raw, &results); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	s := &side{values: map[string]map[string][]float64{}, fails: map[string][]float64{}}
	for i := range results {
		r := &results[i]
		if r.Trace {
			continue // per-layer numbers carry no bound
		}
		if s.values[r.Workload] == nil {
			s.values[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			s.values[r.Workload][name] = append(s.values[r.Workload][name], v.Value)
		}
		s.fails[r.Workload] = append(s.fails[r.Workload], r.failRatio())
	}
	return s, nil
}

// compareFiles prints one row per (workload, end-to-end metric) and
// returns the exit code: 1 when any row regressed.
func compareFiles(out io.Writer, parentPath, changePath string) int {
	parent, err := loadSide(parentPath)
	if err == nil {
		var change *side
		if change, err = loadSide(changePath); err == nil {
			return compare(out, parent, change)
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

func compare(out io.Writer, parent, change *side) int {
	code := 0
	fmt.Fprintf(out, "%-18s %-16s %12s %12s %8s %8s %7s  %s\n",
		"workload", "metric", "parent", "change", "worse", "spread", "bound", "verdict")
	for i := range workloads {
		w := workloads[i].Name
		if parent.values[w] == nil || change.values[w] == nil {
			fmt.Fprintf(out, "%-18s missing from one side\n", w)
			code = 1
			continue
		}
		for _, m := range endToEnd {
			verdict, worse, seen := judge(m, parent.values[w][m.Name], change.values[w][m.Name])
			if verdict == verdictRegressed {
				code = 1
			}
			fmt.Fprintf(out, "%-18s %-16s %12.4f %12.4f %+7.1f%% %7.1f%% %6.1f%%  %s\n", w, m.Name,
				median(parent.values[w][m.Name]), median(change.values[w][m.Name]),
				100*worse, 100*seen, 100*m.Bound, verdict)
		}
		// fail_ratio is 0 on the baseline, so its bound is absolute.
		pf, cf := median(parent.fails[w]), median(change.fails[w])
		verdict := verdictOK
		if cf-pf > failRatioBound {
			verdict, code = verdictRegressed, 1
		}
		fmt.Fprintf(out, "%-18s %-16s %12.4f %12.4f %+8.4f %8s %7.3f  %s\n", w, "fail_ratio", pf, cf, cf-pf, "-", failRatioBound, verdict)
	}
	return code
}
