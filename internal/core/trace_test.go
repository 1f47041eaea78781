package core

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"obfuscade/internal/obs"
	"obfuscade/internal/printer"
	"obfuscade/internal/trace"
)

// matrixTraceJSON runs a full quality matrix at the given pool size on a
// clean default recorder and returns the deterministic event census.
func matrixTraceJSON(t *testing.T, workers int) []byte {
	t.Helper()
	trace.Default().Reset()
	prot, err := NewProtectedBar("trace-bar", false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := QualityMatrixWorkers(prot, printer.DimensionElite(), workers); err != nil {
		t.Fatal(err)
	}
	if d := trace.Default().Dropped(); d != 0 {
		t.Fatalf("ring dropped %d events during a single matrix pass", d)
	}
	data, err := trace.Default().DeterministicJSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestMatrixTraceDeterministic is the event-multiset contract end to
// end: a serial matrix pass and an 8-worker pass over the same part must
// produce byte-identical deterministic trace censuses — scheduling moves
// events between lanes and reorders them, but never changes what work
// happened.
func TestMatrixTraceDeterministic(t *testing.T) {
	serial := matrixTraceJSON(t, 1)
	pooled := matrixTraceJSON(t, 8)
	if !bytes.Equal(serial, pooled) {
		t.Fatalf("trace multiset differs between workers=1 and workers=8:\nserial:\n%s\npooled:\n%s",
			serial, pooled)
	}
	// The census must cover the whole hierarchy: the run span, one span
	// per key, stage spans and batch instants.
	var rows []trace.CountRow
	if err := json.Unmarshal(serial, &rows); err != nil {
		t.Fatal(err)
	}
	cats := map[string]int64{}
	keySpans := int64(0)
	for _, r := range rows {
		cats[r.Cat] += r.Count
		if r.Cat == "key" {
			keySpans += r.Count
		}
	}
	if cats["run"] != 1 {
		t.Fatalf("want exactly 1 run span, got %d", cats["run"])
	}
	if keySpans != 6 {
		t.Fatalf("want 6 key spans (3 resolutions x 2 orientations), got %d", keySpans)
	}
	if cats["stage"] == 0 || cats["batch"] == 0 {
		t.Fatalf("stage/batch events missing from census: %v", cats)
	}
}

// TestStagesAgreeWithTrace runs one matrix pass and one job and checks
// that every Stage's two sinks agree: its .calls delta is its span count
// in the trace and its .seconds sum delta is, to the nanosecond, the sum
// of those spans' durations. It also checks the hierarchy the spans
// form: every key span is a child of the run span, and every stage span
// has a parent recorded in the same trace.
func TestStagesAgreeWithTrace(t *testing.T) {
	prot, err := NewProtectedBar("sinks-bar", true)
	if err != nil {
		t.Fatal(err)
	}
	prof := printer.DimensionElite()
	before := obs.Default().Snapshot()
	trace.Default().Reset()
	if _, err := QualityMatrixWorkers(prot, prof, 0); err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Part: "bar", Key: prot.Manifest.Key, Simulate: true}
	if _, err := RunJob(context.Background(), spec, prof); err != nil {
		t.Fatal(err)
	}
	after := obs.Default().Snapshot()
	if d := trace.Default().Dropped(); d != 0 {
		t.Fatalf("ring dropped %d events", d)
	}

	type total struct{ n, ns int64 }
	spans := map[string]*total{}
	byID := map[uint64]trace.Event{}
	var run trace.Event
	for _, e := range trace.Default().Events() {
		if e.Kind != trace.KindSpan {
			continue
		}
		byID[e.ID] = e
		if spans[e.Name] == nil {
			spans[e.Name] = &total{}
		}
		spans[e.Name].n++
		spans[e.Name].ns += e.Dur.Nanoseconds()
		if e.Cat == "run" && e.Name == "core.matrix" {
			run = e
		}
	}

	// A Stage is a <name>.seconds histogram beside a <name>.calls counter.
	ran := map[string]bool{}
	for _, h := range after.Stages {
		name, ok := strings.CutSuffix(h.Name, ".seconds")
		if !ok {
			continue
		}
		calls, ok := after.Counter(name + ".calls")
		if !ok {
			continue
		}
		c0, _ := before.Counter(name + ".calls")
		h0, _ := before.Stage(h.Name)
		got := spans[name]
		if got == nil {
			got = &total{}
		}
		if calls-c0 != got.n {
			t.Errorf("%s: .calls moved by %d, trace holds %d spans", name, calls-c0, got.n)
		}
		if ns := int64(math.Round((h.SumSeconds - h0.SumSeconds) * 1e9)); ns != got.ns {
			t.Errorf("%s: .seconds sum moved by %d ns, its spans last %d ns", name, ns, got.ns)
		}
		ran[name] = calls > c0
	}
	for _, name := range []string{"core.matrix", "core.job", "core.manufacture", "memo.lookup",
		"tessellate.mesh", "slicer.index.build", "slicer.slice", "parallel.foreach",
		"printer.print", "printer.voxel", "gcode.simulate"} {
		if !ran[name] {
			t.Errorf("stage %s did not run", name)
		}
	}

	for _, e := range byID {
		switch e.Cat {
		case "key":
			if e.Parent != run.ID {
				t.Errorf("key span %s has parent %d, want the run span %d", e.Name, e.Parent, run.ID)
			}
		case "stage":
			if p, ok := byID[e.Parent]; !ok || p.Trace != e.Trace {
				t.Errorf("stage span %s has parent %d, which is not a span of its trace", e.Name, e.Parent)
			}
		}
	}
}

// TestMatrixProvenance checks the per-key audit records captured by the
// same matrix pass: digests, counts and grades are filled for every key
// and deterministic across pool sizes.
func TestMatrixProvenance(t *testing.T) {
	run := func(workers int) []MatrixEntry {
		prot, err := NewProtectedBar("prov-bar", false)
		if err != nil {
			t.Fatal(err)
		}
		entries, err := QualityMatrixWorkers(prot, printer.DimensionElite(), workers)
		if err != nil {
			t.Fatal(err)
		}
		return entries
	}
	serial := run(1)
	pooled := run(8)
	if len(serial) != len(pooled) {
		t.Fatalf("entry count differs: %d vs %d", len(serial), len(pooled))
	}
	for i := range serial {
		sp, pp := serial[i].Provenance, pooled[i].Provenance
		if sp == nil || pp == nil {
			t.Fatalf("entry %d missing provenance", i)
		}
		if sp.STLSHA256 == "" || len(sp.STLSHA256) != 64 {
			t.Fatalf("entry %d has bad digest %q", i, sp.STLSHA256)
		}
		if sp.STLSHA256 != pp.STLSHA256 {
			t.Fatalf("entry %d STL digest differs across pool sizes", i)
		}
		if sp.Grade != pp.Grade || sp.Grade == "" {
			t.Fatalf("entry %d grade mismatch: %q vs %q", i, sp.Grade, pp.Grade)
		}
		if sp.Triangles == 0 || sp.Triangles != pp.Triangles {
			t.Fatalf("entry %d triangles mismatch: %d vs %d", i, sp.Triangles, pp.Triangles)
		}
		for _, k := range []string{"slicer.layers.sliced", "printer.layers.deposited", "gcode.sim.commands"} {
			if sp.CounterDeltas[k] == 0 {
				t.Fatalf("entry %d delta %q is zero: %v", i, k, sp.CounterDeltas)
			}
			if sp.CounterDeltas[k] != pp.CounterDeltas[k] {
				t.Fatalf("entry %d delta %q differs across pool sizes", i, k)
			}
		}
		if len(sp.StageSeconds) == 0 {
			t.Fatalf("entry %d has no stage timings", i)
		}
	}
}

func TestWriteManifests(t *testing.T) {
	prot, err := NewProtectedBar("manifest-bar", false)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := QualityMatrixWorkers(prot, printer.DimensionElite(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := WriteManifests(&buf, entries, 99)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(entries) {
		t.Fatalf("wrote %d manifests for %d entries", n, len(entries))
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != n {
		t.Fatalf("%d NDJSON lines for %d manifests", len(lines), n)
	}
	for i, line := range lines {
		var p Provenance
		if err := json.Unmarshal([]byte(line), &p); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if p.Seed != 99 {
			t.Fatalf("line %d seed %d, want 99 (stamped at write time)", i, p.Seed)
		}
		if p.Part != "manifest-bar" {
			t.Fatalf("line %d part %q", i, p.Part)
		}
	}
	// The caller's entries must not be mutated by the seed stamping.
	if entries[0].Provenance.Seed != 0 {
		t.Fatalf("WriteManifests mutated the caller's provenance: seed %d",
			entries[0].Provenance.Seed)
	}
}
