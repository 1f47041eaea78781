package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"obfuscade/internal/cache"
	"obfuscade/internal/gcode"
	"obfuscade/internal/memo"
	"obfuscade/internal/parallel"
	"obfuscade/internal/printer"
)

var update = flag.Bool("update", false, "rewrite golden files")

const outputsGolden = "testdata/pipeline_outputs.golden"

// pipelineOutputs manufactures every key of every catalog part in one
// pooled round (one stage memo per part, as the quality matrix does) and
// renders one row per key: STL and G-code SHA-256, triangle count, grade
// and the deterministic counter deltas. The first line names the
// PipelineVersion the rows were produced under.
func pipelineOutputs(t *testing.T) string {
	t.Helper()
	type job struct {
		part string
		prot *Protected
		key  Key
		mm   *cache.Cache
	}
	var jobs []job
	for _, part := range []string{"bar", "bar-sphere", "double-bar", "prism"} {
		prot, err := BuildProtected(part)
		if err != nil {
			t.Fatal(err)
		}
		mm := memo.New(0)
		for _, k := range AllKeys(prot) {
			jobs = append(jobs, job{part, prot, k, mm})
		}
	}
	rows := make([]string, len(jobs))
	prof := printer.DimensionElite()
	err := parallel.ForEachCtx(context.Background(), len(jobs), 0, func(ctx context.Context, i int) error {
		j := jobs[i]
		res, err := ManufactureMemoCtx(ctx, j.prot, j.key, prof, j.mm)
		if err != nil {
			return err
		}
		sim, err := gcode.SimulateCtx(ctx, res.Run.GCode, gcode.DimensionEliteEnvelope())
		if err != nil {
			return err
		}
		prog, err := gcode.Marshal(res.Run.GCode)
		if err != nil {
			return err
		}
		prov := NewProvenance(res, sim, 0)
		res.Run.Build.Grid.Release()
		names := make([]string, 0, len(prov.CounterDeltas))
		for name := range prov.CounterDeltas {
			names = append(names, name)
		}
		sort.Strings(names)
		deltas := make([]string, len(names))
		for k, name := range names {
			deltas[k] = fmt.Sprintf("%s=%d", name, prov.CounterDeltas[name])
		}
		gsum := sha256.Sum256(prog)
		rows[i] = fmt.Sprintf("%s %s stl=%s gcode=%s triangles=%d grade=%s %s",
			j.part, j.key, prov.STLSHA256, hex.EncodeToString(gsum[:]),
			prov.Triangles, prov.Grade, strings.Join(deltas, " "))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return "# " + PipelineVersion + "\n" + strings.Join(rows, "\n") + "\n"
}

// TestOutputsPinnedToPipelineVersion pins the bytes every job produces
// to PipelineVersion, which the job cache and the disk tier hash into
// every key: a change to STL, G-code, grade or counter output that does
// not bump the version would let a restarted service serve stale
// results from disk. Any row that differs fails the test, naming the key
// and the digests. A deliberate output change bumps PipelineVersion and
// re-pins the file with -update. The golden was recorded on amd64;
// other architectures may fuse multiply-adds and move the geometry.
func TestOutputsPinnedToPipelineVersion(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the golden was recorded on amd64; on %s the compiler may fuse multiply-adds and change output bytes", runtime.GOARCH)
	}
	got := pipelineOutputs(t)
	if *update {
		if err := os.MkdirAll(filepath.Dir(outputsGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(outputsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wantData, err := os.ReadFile(outputsGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	want := string(wantData)
	if got == want {
		return
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(want, "\n")
	if gotLines[0] != wantLines[0] {
		t.Fatalf("PipelineVersion is %q but %s pins %q: re-pin the outputs with -update",
			PipelineVersion, outputsGolden, strings.TrimPrefix(wantLines[0], "# "))
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d output rows, golden has %d", len(gotLines)-2, len(wantLines)-2)
	}
	// A row is the part, the three key fields, then name=value fields;
	// report each differing field under its key.
	var diffs bytes.Buffer
	for i := range gotLines {
		if gotLines[i] == wantLines[i] {
			continue
		}
		g, w := strings.Fields(gotLines[i]), strings.Fields(wantLines[i])
		if len(g) != len(w) || len(g) < 4 || strings.Join(g[:4], " ") != strings.Join(w[:4], " ") {
			fmt.Fprintf(&diffs, "\n  want %s\n   got %s", wantLines[i], gotLines[i])
			continue
		}
		fmt.Fprintf(&diffs, "\n  %s:", strings.Join(g[:4], " "))
		for f := 4; f < len(g); f++ {
			if g[f] != w[f] {
				fmt.Fprintf(&diffs, " %s (golden %s)", g[f], w[f][strings.IndexByte(w[f], '=')+1:])
			}
		}
	}
	t.Fatalf("output bytes changed under unchanged PipelineVersion %q: bump it and re-pin with -update%s",
		PipelineVersion, diffs.String())
}
