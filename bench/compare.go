package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
)

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// loadResults reads every untraced result file in dir, by workload.
func loadResults(dir string) (map[string][]result, error) {
	files, err := filepath.Glob(filepath.Join(dir, "bench-results-*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string][]result{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if r.Trace == 0 {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no untraced result files in %s", dir)
	}
	return out, nil
}

// compareRow is one workload × metric comparison.
type compareRow struct {
	Workload, Metric string
	A, B             [3]float64 // first quartile, median, third quartile
	NA, NB           int
	Change, Bound    float64 // relative change of B's median from A's
	Verdict          string
}

// compareSets compares two sets of runs per workload and end-to-end metric.
// The verdict is unresolved when either side's quartile spread, relative to
// its median, is wider than the metric's bound; otherwise agree when the
// medians are within the bound of each other, else differ.
func compareSets(spec *benchSpec, a, b map[string][]result) []compareRow {
	var rows []compareRow
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			row := compareRow{Workload: wl.Name, Metric: m.Name, Bound: m.Bound}
			va, vb := metricValues(a[wl.Name], m.Name), metricValues(b[wl.Name], m.Name)
			row.NA, row.NB = len(va), len(vb)
			if len(va) == 0 || len(vb) == 0 {
				row.Verdict = "missing"
				rows = append(rows, row)
				continue
			}
			row.A[0], row.A[1], row.A[2] = quartiles(va)
			row.B[0], row.B[1], row.B[2] = quartiles(vb)
			spread := math.Max((row.A[2]-row.A[0])/math.Abs(row.A[1]), (row.B[2]-row.B[0])/math.Abs(row.B[1]))
			row.Change = (row.B[1] - row.A[1]) / math.Abs(row.A[1])
			switch {
			case spread > m.Bound:
				row.Verdict = "unresolved"
			case math.Abs(row.Change) <= m.Bound:
				row.Verdict = "agree"
			case (row.Change > 0) == (m.Better == "higher"):
				row.Verdict = "differ (better)"
			default:
				row.Verdict = "differ (worse)"
			}
			rows = append(rows, row)
		}
	}
	return rows
}

func metricValues(rs []result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// compareMain is `bench compare <dirA> <dirB>`. It exits 0 only when every
// row agrees.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare <dirA> <dirB>")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	a, err := loadResults(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	b, err := loadResults(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	rows := compareSets(spec, a, b)
	fmt.Fprintf(w, "%-10s %-16s %33s %33s %8s %6s  %s\n", "workload", "metric",
		"A median [q1, q3] (n)", "B median [q1, q3] (n)", "change", "bound", "verdict")
	code := 0
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-16s %33s %33s %+7.1f%% %5.0f%%  %s\n", r.Workload, r.Metric,
			quart(r.A, r.NA), quart(r.B, r.NB), 100*r.Change, 100*r.Bound, r.Verdict)
		if r.Verdict != "agree" {
			code = 1
		}
	}
	return code
}

func quart(q [3]float64, n int) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", q[1], q[0], q[2], n)
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
