package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"obfuscade/internal/core"
	"obfuscade/internal/mech"
	"obfuscade/internal/printer"
	"obfuscade/internal/stl"
	"obfuscade/internal/tessellate"
	"obfuscade/internal/trace"
)

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest.json")
	prot, err := core.NewProtectedBar("bar", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := saveManifest(path, prot.Manifest); err != nil {
		t.Fatal(err)
	}
	got, err := loadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.PartName != prot.Manifest.PartName {
		t.Errorf("part name = %q", got.PartName)
	}
	if got.Key.Resolution.Name != prot.Manifest.Key.Resolution.Name {
		t.Errorf("key resolution = %q", got.Key.Resolution.Name)
	}
	if got.Key.Orientation != mech.XY {
		t.Errorf("key orientation = %v", got.Key.Orientation)
	}
	if !got.Key.RestoreSphere {
		t.Error("restore-sphere bit lost")
	}
	if len(got.Features) != 2 {
		t.Errorf("features = %d", len(got.Features))
	}
	if got.CADDigest != prot.Manifest.CADDigest {
		t.Error("digest lost")
	}
}

func TestLoadManifestErrors(t *testing.T) {
	if _, err := loadManifest("/nonexistent.json"); err == nil {
		t.Error("expected error for missing file")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := loadManifest(bad); err == nil {
		t.Error("expected error for malformed manifest")
	}
	// An unknown key orientation must fail, never load as x-y.
	prot, err := core.NewProtectedBar("bar", false)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "manifest.json")
	if err := saveManifest(path, prot.Manifest); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, orient := range []string{"sideways", "y-z", ""} {
		raw["key_orientation"] = orient
		edited, err := json.Marshal(raw)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, edited, 0o600); err != nil {
			t.Fatal(err)
		}
		if _, err := loadManifest(path); err == nil || !strings.Contains(err.Error(), "unknown orientation") {
			t.Errorf("key_orientation %q: got error %v, want an unknown-orientation error", orient, err)
		}
	}
}

func TestProtectManufactureSubcommands(t *testing.T) {
	dir := t.TempDir()
	cad := filepath.Join(dir, "design.ocad")
	man := filepath.Join(dir, "manifest.json")

	if err := cmdProtect([]string{"-out", cad, "-manifest", man}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cad, man} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("missing %s: %v", p, err)
		}
	}
	// Manufacture under an arbitrary key; authentication runs too.
	if err := cmdManufacture([]string{
		"-in", cad, "-manifest", man, "-res", tessellate.Coarse.Name, "-orient", "xy",
	}); err != nil {
		t.Fatal(err)
	}
	// Tampered CAD file is rejected by the distribution check.
	data, err := os.ReadFile(cad)
	if err != nil {
		t.Fatal(err)
	}
	data[50] ^= 0xFF
	tampered := filepath.Join(dir, "tampered.ocad")
	if err := os.WriteFile(tampered, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdManufacture([]string{"-in", tampered, "-manifest", man}); err == nil {
		t.Error("tampered design should be rejected")
	}
}

// protectTo writes the reference protected design and its manifest into
// a fresh directory and returns their paths.
func protectTo(t *testing.T) (cad, man string) {
	t.Helper()
	dir := t.TempDir()
	cad = filepath.Join(dir, "design.ocad")
	man = filepath.Join(dir, "manifest.json")
	if err := cmdProtect([]string{"-out", cad, "-manifest", man}); err != nil {
		t.Fatal(err)
	}
	return cad, man
}

func TestManufactureWritesArtifacts(t *testing.T) {
	cad, man := protectTo(t)
	dir := filepath.Dir(cad)
	stlPath := filepath.Join(dir, "out.stl")
	gcodePath := filepath.Join(dir, "out.gcode")
	if err := cmdManufacture([]string{"-in", cad, "-manifest", man, "-orient", "x-z",
		"-printer", "fdm", "-stl", stlPath, "-gcode", gcodePath, "-inspect"}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{stlPath, gcodePath} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("missing artifact %s: %v", p, err)
		}
		if fi.Size() == 0 {
			t.Errorf("empty artifact %s", p)
		}
	}
	data, err := os.ReadFile(stlPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stl.Unmarshal(data); err != nil {
		t.Errorf("written STL does not decode: %v", err)
	}
}

func TestManufactureBadArguments(t *testing.T) {
	cad, man := protectTo(t)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-res", "ultra"}, "unknown resolution"},
		{[]string{"-orient", "bogus"}, "unknown orientation"},
		{[]string{"-orient", "y-z"}, "unknown orientation"},
		{[]string{"-printer", "sls"}, "unknown printer"},
		{[]string{"-in", "/nonexistent/file.ocad"}, "no such file"},
	} {
		args := append([]string{"-in", cad, "-manifest", man}, tc.args...)
		err := cmdManufacture(args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("manufacture %v: got error %v, want one mentioning %q", tc.args, err, tc.want)
		}
	}
}

// TestMatrixSubcommand runs matrix with every output it offers on a
// protected design: the key-space lines, the metrics tables, one
// provenance manifest per key and the run's Chrome trace.
func TestMatrixSubcommand(t *testing.T) {
	cad, man := protectTo(t)
	dir := filepath.Dir(cad)
	manifests := filepath.Join(dir, "manifests.ndjson")
	traceOut := filepath.Join(dir, "trace.json")

	trace.Default().Reset()
	var err error
	out := captureStdout(t, func() {
		err = cmdMatrix([]string{"-in", cad, "-manifest", man, "-keyspace", "-stats",
			"-manifest-out", manifests, "-trace-out", traceOut})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"2 of 6 keys manufacture a good part:",
		"key space size:           6",
		"good keys:                2",
		"mean print time:",
		"expected brute-force:",
		"wrote 6 provenance manifests to " + manifests,
		"worker pool utilization:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("matrix output lacks %q:\n%s", want, out)
		}
	}

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
		if p.STLSHA256 == "" || p.Grade == "" {
			t.Fatalf("manifest line %d incomplete: %+v", i, p)
		}
	}

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

// TestKeyspaceSubcommand checks that the key-space report, once a
// subcommand of its own, is the tail of `matrix -keyspace`: the output
// ends with exactly the lines a separate core.AnalyzeKeySpace pass
// reports for the same design.
func TestKeyspaceSubcommand(t *testing.T) {
	cad, man := protectTo(t)
	var err error
	out := captureStdout(t, func() {
		err = cmdMatrix([]string{"-in", cad, "-manifest", man, "-keyspace"})
	})
	if err != nil {
		t.Fatal(err)
	}
	prot, err := loadProtected(cad, man)
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := core.AnalyzeKeySpace(prot, printer.DimensionElite())
	if err != nil {
		t.Fatal(err)
	}
	want := captureStdout(t, func() { printKeySpace(rep) })
	if !strings.HasSuffix(out, want) {
		t.Fatalf("matrix -keyspace output does not end with the key-space report\n%s\nwant suffix:\n%s", out, want)
	}
}

func TestStatsSubcommand(t *testing.T) {
	// The default JSON form runs a full matrix pass; capture stdout to
	// check the JSON parses and names the expected counters.
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	statsErr := cmdStats([]string{"-workers", "2"})
	w.Close()
	os.Stdout = old
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if statsErr != nil {
		t.Fatal(statsErr)
	}
	var snap struct {
		Counters []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"counters"`
	}
	if err := json.Unmarshal(out, &snap); err != nil {
		t.Fatalf("stats output is not valid JSON: %v", err)
	}
	found := map[string]int64{}
	for _, c := range snap.Counters {
		found[c.Name] = c.Value
	}
	if found["core.matrix.keys"] != 6 {
		t.Errorf("core.matrix.keys = %d, want 6", found["core.matrix.keys"])
	}
	if found["slicer.layers.sliced"] == 0 {
		t.Error("slicer.layers.sliced missing from stats output")
	}
}

func TestAdviseSubcommand(t *testing.T) {
	if err := cmdAdvise([]string{"-amplitudes", "2.0"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdAdvise([]string{"-amplitudes", "nope"}); err == nil {
		t.Error("expected error for bad amplitude list")
	}
}

func TestMarkAndTraceSubcommands(t *testing.T) {
	dir := t.TempDir()
	// Produce an original STL.
	prot, err := core.NewProtectedBar("bar", false)
	if err != nil {
		t.Fatal(err)
	}
	part, err := core.ClonePart(prot.Part)
	if err != nil {
		t.Fatal(err)
	}
	m, err := tessellate.Tessellate(part, tessellate.Fine)
	if err != nil {
		t.Fatal(err)
	}
	data, err := stl.Marshal(m, stl.Binary, "bar")
	if err != nil {
		t.Fatal(err)
	}
	orig := filepath.Join(dir, "orig.stl")
	if err := os.WriteFile(orig, data, 0o644); err != nil {
		t.Fatal(err)
	}
	marked := filepath.Join(dir, "marked.stl")
	if err := cmdMark([]string{"-in", orig, "-out", marked, "-key", "partner-x"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdTrace([]string{"-original", orig, "-suspect", marked,
		"-keys", "partner-x,partner-y"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdMark([]string{"-in", orig}); err == nil {
		t.Error("expected error for missing flags")
	}
	if err := cmdTrace([]string{"-original", orig}); err == nil {
		t.Error("expected error for missing flags")
	}
}
