package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"obfuscade/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestStatsTextGolden pins the text rendering of `obfuscade stats
// -format text` against a golden file. A live matrix pass has
// nondeterministic wall times, so the snapshot is a fixed literal — the
// golden guards the layout, not the measurements.
func TestStatsTextGolden(t *testing.T) {
	snap := obs.Snapshot{
		Counters: []obs.MetricValue{
			{Name: "core.matrix.keys", Value: 6},
			{Name: "slicer.layers.sliced", Value: 1200},
		},
		Gauges: []obs.MetricValue{
			{Name: "parallel.pool.busy.nanos", Value: 3_000_000_000},
			{Name: "parallel.pool.wall.nanos", Value: 4_000_000_000},
		},
		Stages: []obs.HistogramSnapshot{{
			Name:       "core.matrix",
			Count:      1,
			SumSeconds: 1.5,
			Bounds:     []float64{1, 10},
			Counts:     []int64{0, 1},
		}},
	}
	var buf bytes.Buffer
	snap.WriteText(&buf)

	path := filepath.Join("testdata", "stats_text.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("stats text rendering drifted from golden.\ngot:\n%s\nwant:\n%s",
			buf.Bytes(), want)
	}
	if !strings.Contains(buf.String(), "worker pool utilization: 75%") {
		t.Fatalf("utilization line missing:\n%s", buf.String())
	}
}

// TestStatsFormatFlag covers the -format dispatch: text renders the
// human tables, json emits the snapshot, and unknown values error
// before any work runs.
func TestStatsFormatFlag(t *testing.T) {
	capture := func(args []string) (string, error) {
		old := os.Stdout
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		os.Stdout = w
		runErr := cmdStats(args)
		w.Close()
		os.Stdout = old
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(r); err != nil {
			t.Fatal(err)
		}
		return buf.String(), runErr
	}

	if err := cmdStats([]string{"-format", "xml"}); err == nil ||
		!strings.Contains(err.Error(), "unknown -format") {
		t.Fatalf("want unknown-format error, got %v", err)
	}

	text, err := capture([]string{"-format", "text", "-workers", "2"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "worker pool utilization") || strings.HasPrefix(strings.TrimSpace(text), "{") {
		t.Fatalf("-format text did not render tables:\n%s", text)
	}

	jsonOut, err := capture([]string{"-format", "json", "-workers", "2"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(strings.TrimSpace(jsonOut), "{") {
		t.Fatalf("-format json did not emit JSON:\n%s", jsonOut)
	}
}
