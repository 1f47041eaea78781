package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"obfuscade/internal/core"
	"obfuscade/internal/obs"
	"obfuscade/internal/trace"
)

// silenceStdout redirects the experiment tables away from the test log.
func silenceStdout(t *testing.T) {
	t.Helper()
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	t.Cleanup(func() {
		os.Stdout = old
		devnull.Close()
	})
}

// TestMatrixExperimentArtifacts is the issue's acceptance path: -exp
// matrix with -manifest-out and a trace dump must yield a valid NDJSON
// manifest per key and a loadable Chrome trace.
func TestMatrixExperimentArtifacts(t *testing.T) {
	silenceStdout(t)
	dir := t.TempDir()
	manifests := filepath.Join(dir, "manifests.ndjson")
	traceOut := filepath.Join(dir, "trace.json")

	trace.Default().Reset()
	if err := run(runOpts{exp: "matrix", n: 2, seed: 7, manifestOut: manifests}); err != nil {
		t.Fatal(err)
	}
	if err := writeTrace(traceOut); err != nil {
		t.Fatal(err)
	}

	// Manifests: one valid provenance line per key, stamped with the seed.
	data, err := os.ReadFile(manifests)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 6 {
		t.Fatalf("want 6 manifest lines, got %d", len(lines))
	}
	for i, line := range lines {
		var p core.Provenance
		if err := json.Unmarshal([]byte(line), &p); err != nil {
			t.Fatalf("manifest line %d: %v", i, err)
		}
		if p.Seed != 7 {
			t.Fatalf("manifest line %d seed %d, want 7", i, p.Seed)
		}
		if p.STLSHA256 == "" || p.Grade == "" {
			t.Fatalf("manifest line %d incomplete: %+v", i, p)
		}
	}

	// Trace: valid Chrome JSON containing the matrix run span.
	traceData, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(traceData, &chrome); err != nil {
		t.Fatalf("trace output is not valid Chrome JSON: %v", err)
	}
	foundRun := false
	for _, e := range chrome.TraceEvents {
		if e.Cat == "run" && e.Name == "core.matrix" {
			foundRun = true
		}
	}
	if !foundRun {
		t.Fatal("Chrome trace lacks the core.matrix run span")
	}
}

// TestDebugServerBindFailure pins the synchronous-bind contract main
// relies on for exit code 4: an occupied port errors at StartDebugServer
// time, never from a background goroutine after experiments started.
func TestDebugServerBindFailure(t *testing.T) {
	srv, err := trace.StartDebugServer("127.0.0.1:0", obs.Default(), trace.Default())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := trace.StartDebugServer(srv.Addr(), obs.Default(), trace.Default()); err == nil {
		t.Fatal("second bind on an occupied port must fail synchronously")
	}
}

// TestDebugServerServesRunMetrics drives a small experiment with the
// debug server up and scrapes /metrics afterwards — the live-scrape
// workflow the README documents.
func TestDebugServerServesRunMetrics(t *testing.T) {
	silenceStdout(t)
	srv, err := trace.StartDebugServer("127.0.0.1:0", obs.Default(), trace.Default())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := run(runOpts{exp: "fig5", n: 2, seed: 1}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "obfuscade_") {
		t.Fatalf("/metrics has no obfuscade_ series:\n%s", body)
	}
}
