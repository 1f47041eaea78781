package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func testRoot(t *testing.T) string {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// runDirs lists the per-run scratch directories under root.
func runDirs(t *testing.T, root string) map[string]bool {
	t.Helper()
	dirs, err := filepath.Glob(filepath.Join(root, ".bench_build", "tmp", "run-*"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, d := range dirs {
		out[d] = true
	}
	return out
}

// processesUnder lists the running processes whose executable lies under
// dir; a removed executable still shows under its old path.
func processesUnder(t *testing.T, dir string) []string {
	t.Helper()
	exes, err := filepath.Glob("/proc/[0-9]*/exe")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, exe := range exes {
		target, err := os.Readlink(exe)
		if err == nil && strings.HasPrefix(target, dir+string(filepath.Separator)) {
			out = append(out, filepath.Dir(exe)+" "+target)
		}
	}
	return out
}

// checkCleanedUp fails the test if a run left its scratch directory or a
// process behind.
func checkCleanedUp(t *testing.T, root string, before map[string]bool) {
	t.Helper()
	for d := range runDirs(t, root) {
		if !before[d] {
			t.Errorf("run directory %s left behind", d)
		}
	}
	if procs := processesUnder(t, filepath.Join(root, ".bench_build", "tmp")); len(procs) > 0 {
		t.Errorf("processes left behind: %v", procs)
	}
}

// TestQuickPass runs every workload once with small inputs and a one-second
// phase, untraced, and checks that each passes its output checks, reports
// every end-to-end metric, and leaves nothing behind.
func TestQuickPass(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers")
	}
	root := testRoot(t)
	before := runDirs(t, root)
	// The workloads run side by side: each has its own servers and
	// scratch directory, and most of a quick run is its timed second.
	t.Run("workloads", func(t *testing.T) {
		for _, name := range workloadNames {
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				quickPass(t, root, name)
			})
		}
	})
	checkCleanedUp(t, root, before)
}

// quickPass runs one workload with small inputs and a one-second phase.
func quickPass(t *testing.T, root, name string) {
	cfg := config{workload: name, seed: 3, seconds: 1, quick: true, out: t.TempDir()}
	res, err := runWorkload(context.Background(), root, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("correct=%t attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, res.Failures)
	}
	for m, unit := range e2eUnits {
		got, ok := res.Metrics[m]
		if !ok || got.Unit != unit || !(got.Value > 0) {
			t.Errorf("metric %s = %+v, want a positive value in %s", m, got, unit)
		}
	}
	if len(res.Metrics) != len(e2eUnits) {
		t.Errorf("%d metrics reported, want the %d end-to-end ones", len(res.Metrics), len(e2eUnits))
	}
}

// TestInterruptCleansUp cancels a jobs-cold run in the middle of its timed
// phase, as SIGINT does, and checks that the run fails without a result and
// leaves no server or scratch directory behind.
func TestInterruptCleansUp(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers")
	}
	root := testRoot(t)
	before := runDirs(t, root)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		cfg := config{workload: "jobs-cold", seed: 4, seconds: 30, quick: true, out: t.TempDir()}
		_, err := runWorkload(ctx, root, cfg)
		done <- err
	}()
	// Cancel once the cluster answers and requests are in flight.
	deadline := time.Now().Add(60 * time.Second)
	for started := false; !started; {
		for d := range runDirs(t, root) {
			if _, err := os.Stat(filepath.Join(d, "cluster", "router.addr")); !before[d] && err == nil {
				started = true
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("cluster did not start within 60s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(300 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Error("an interrupted run returned a result")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("interrupted run did not return within 30s")
	}
	checkCleanedUp(t, root, before)
}

// TestFailedStartStopsServers starts a cluster whose router cannot start
// and checks that the shards already running are stopped and reaped.
func TestFailedStartStopsServers(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers")
	}
	root := testRoot(t)
	dir := t.TempDir()
	bin, err := buildObfuscade(context.Background(), root, dir)
	if err != nil {
		t.Fatal(err)
	}
	// The wrapper runs shards as they are and fails the router at start-up.
	wrapper := filepath.Join(dir, "wrapper")
	script := "#!/bin/sh\ncase \"$*\" in *-route-to*) echo no router >&2; exit 3;; esac\nexec " + bin + " \"$@\"\n"
	if err := os.WriteFile(wrapper, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	cl, err := startCluster(context.Background(), wrapper, filepath.Join(dir, "cluster"), coldShards, nil)
	if err == nil {
		cl.stop()
		t.Fatal("cluster started without a router")
	}
	if !strings.Contains(err.Error(), "no router") {
		t.Errorf("error %q does not carry the router's output", err)
	}
	if procs := processesUnder(t, dir); len(procs) > 0 {
		t.Errorf("shards left running: %v", procs)
	}
}

// TestTracedRunReportsEveryLayer runs the traced matrix with small inputs
// and checks that every per-layer metric is reported and the replay's
// stages account for its wall time.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers")
	}
	root := testRoot(t)
	before := runDirs(t, root)
	cfg := config{workload: "matrix", seed: 5, seconds: 1, trace: true, quick: true, out: t.TempDir()}
	res, err := runWorkload(context.Background(), root, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("traced run failed its checks: %v", res.Failures)
	}
	for m, unit := range layerUnits {
		if got, ok := res.Metrics[m]; !ok || got.Unit != unit {
			t.Errorf("layer metric %s = %+v, want one in %s", m, got, unit)
		}
	}
	if r := res.Metrics["matrix.residual_share"].Value; r > 0.10 {
		t.Errorf("replay residual %.3f of wall time outside the timed stages, want ≤ 0.10", r)
	}
	if _, err := os.Stat(res.Meta["trace_file"].(string)); err != nil {
		t.Errorf("trace file: %v", err)
	}
	checkCleanedUp(t, root, before)
}
