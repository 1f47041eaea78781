package main

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"obfuscade/internal/obs"
	"obfuscade/internal/parallel"
	"obfuscade/internal/trace"
)

// TestPaperAllGolden regenerates every experiment at the flag defaults
// (-seed 1, -n 5) and diffs the output against
// testdata/paper_all.golden, so a change to any number the paper
// subcommand prints fails here. Run with -update to rewrite the golden.
func TestPaperAllGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the golden was recorded on amd64; on %s the compiler may fuse multiply-adds and change printed digits", runtime.GOARCH)
	}
	parallel.SetDefault(0)
	var buf bytes.Buffer
	for _, e := range paperExperiments {
		if err := e.run(&buf, paperOpts{n: 5, seed: 1}); err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
	}

	path := filepath.Join("testdata", "paper_all.golden")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if bytes.Equal(buf.Bytes(), want) {
		return
	}
	gotLines := strings.Split(buf.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("paper output drifted from %s at line %d:\ngot:  %q\nwant: %q\n(run with -update to accept)", path, i+1, g, w)
		}
	}
}

func TestRunCSV(t *testing.T) {
	var err error
	out := captureStdout(t, func() { err = cmdPaper([]string{"-exp", "fig5", "-csv"}) })
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 2 || strings.Contains(out, "---") {
		t.Fatalf("-csv did not emit a CSV table:\n%s", out)
	}
	cols := strings.Count(lines[0], ",")
	for _, line := range lines {
		if cols == 0 || strings.Count(line, ",") != cols {
			t.Fatalf("-csv rows disagree on the column count:\n%s", out)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	// matrix is not an experiment: obfuscade matrix covers the quality
	// matrix on a design file.
	for _, exp := range []string{"nope", "matrix"} {
		err := cmdPaper([]string{"-exp", exp})
		if err == nil {
			t.Fatalf("-exp %s: expected an unknown-experiment error", exp)
		}
		want := []string{`"` + exp + `"`, "all"}
		for _, e := range paperExperiments {
			want = append(want, e.name)
		}
		for _, want := range want {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("-exp %s: error %q does not name %s", exp, err, want)
			}
		}
	}
}

// TestPaperDebugBindFailsFirst checks that a -debug-addr on an occupied
// port fails the run before any experiment prints.
func TestPaperDebugBindFailsFirst(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	out := captureStdout(t, func() {
		err = cmdPaper([]string{"-exp", "fig5", "-debug-addr", ln.Addr().String()})
	})
	if err == nil {
		t.Fatal("paper with an occupied -debug-addr succeeded")
	}
	if out != "" {
		t.Fatalf("paper printed before failing on the debug address:\n%s", out)
	}
}

// TestPaperTraceOutFailure checks that a -trace-out or -memprofile file
// that cannot be created fails the run before any experiment prints,
// instead of after the whole run or not at all.
func TestPaperTraceOutFailure(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "missing", "out")
	for _, flag := range []string{"-trace-out", "-memprofile"} {
		var err error
		out := captureStdout(t, func() { err = cmdPaper([]string{"-exp", "fig5", flag, bad}) })
		if err == nil || !strings.Contains(err.Error(), "missing") {
			t.Errorf("paper %s %s: got error %v, want a create failure", flag, bad, err)
		}
		if out != "" {
			t.Errorf("paper %s %s printed before failing:\n%s", flag, bad, out)
		}
	}
}

// TestDebugServerServesRunMetrics drives a small experiment with the
// debug server up and scrapes /metrics afterwards — the live-scrape
// workflow the README documents.
func TestDebugServerServesRunMetrics(t *testing.T) {
	srv, err := trace.StartDebugServer("127.0.0.1:0", obs.Default(), trace.Default())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	exps, err := selectExperiments("fig5")
	if err != nil {
		t.Fatal(err)
	}
	if err := exps[0].run(io.Discard, paperOpts{n: 2, seed: 1}); err != nil {
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
