package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

func loadTestSpec(t *testing.T) *benchSpec {
	t.Helper()
	path := filepath.Join(testRoot(t), "BENCHMARK.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s benchSpec
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return &s
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecMatchesHarness checks BENCHMARK.json against the harness: the
// same workloads in the same order, and exactly the metrics each kind of
// run reports, under the units it reports them in.
func TestSpecMatchesHarness(t *testing.T) {
	s := loadTestSpec(t)
	if !slices.Equal(s.Paths, []string{"bench"}) || len(s.Command) < 2 || !strings.HasPrefix(s.Command[1], "bench/") {
		t.Errorf("paths %q, command %q: want the harness under bench", s.Paths, s.Command)
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", s.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	var wls []string
	for _, w := range s.Workloads {
		name(w.Name)
		wls = append(wls, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: why must be one line of 1 to 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if !slices.Equal(wls, workloadNames) {
		t.Errorf("workloads %v, harness runs %v", wls, workloadNames)
	}
	maxBound, setupBound := 0.0, 0.0
	e2e := map[string]string{}
	for _, m := range s.EndToEnd {
		name(m.Name)
		e2e[m.Name] = m.Unit
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s in %s, %s is better", m.Unit, m.Better)
			}
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s bound %g, want the largest (%g)", setupBound, maxBound)
	}
	layer := map[string]string{}
	for _, m := range s.PerLayer {
		name(m.Name)
		layer[m.Name] = m.Unit
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, units := range []map[string]string{e2e, layer} {
		for n, u := range units {
			if !unitRE.MatchString(u) {
				t.Errorf("%s: unit %q does not match %s", n, u, unitRE)
			}
		}
	}
	for _, c := range []struct {
		kind       string
		spec, runs map[string]string
	}{{"end-to-end", e2e, e2eUnits}, {"per-layer", layer, layerUnits}} {
		for n, u := range c.runs {
			if got, ok := c.spec[n]; !ok || got != u {
				t.Errorf("%s metric %s in %s is declared as %q", c.kind, n, u, got)
			}
		}
		for n := range c.spec {
			if _, ok := c.runs[n]; !ok {
				t.Errorf("%s metric %s is declared but never reported", c.kind, n)
			}
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	s := loadTestSpec(t)
	runs := func(vals ...float64) []result {
		out := make([]result, len(vals))
		for i, v := range vals {
			out[i] = result{Metrics: map[string]metric{"throughput": {Value: v}}}
		}
		return out
	}
	bound := 0.0
	for _, m := range s.EndToEnd {
		if m.Name == "throughput" {
			bound = m.Bound
		}
	}
	scaled := func(f float64) []result { return runs(100*f, 100.5*f, 99.5*f, 100.2*f, 99.8*f) }
	steady := scaled(1)
	verdict := func(a, b []result) string {
		for _, r := range compareSets(s, map[string][]result{"matrix": a}, map[string][]result{"matrix": b}) {
			if r.Workload == "matrix" && r.Metric == "throughput" {
				return r.Verdict
			}
		}
		return ""
	}
	for _, tc := range []struct {
		name string
		b    []result
		want string
	}{
		{"same", scaled(1), "agree"},
		{"within the bound", scaled(1 + bound/2), "agree"},
		{"better beyond the bound", scaled(1 + 2*bound), "differ (better)"},
		{"worse beyond the bound", scaled(1 - 2*bound), "differ (worse)"},
		{"spread wider than the bound", runs(50, 100, 150, 200, 250), "unresolved"},
		{"no runs", nil, "missing"},
	} {
		if got := verdict(steady, tc.b); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
