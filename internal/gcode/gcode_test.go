package gcode

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"obfuscade/internal/geom"
	"obfuscade/internal/mesh"
	"obfuscade/internal/slicer"
)

func boxPaths(t *testing.T) []*slicer.LayerToolpath {
	t.Helper()
	m := &mesh.Mesh{Shells: []mesh.Shell{
		mesh.BoxShell("box", "box", geom.V3(10, 10, 0), geom.V3(30, 20, 1)),
	}}
	opts := slicer.DefaultOptions()
	res, err := slicer.SliceIndexedCtx(context.Background(), m, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := res.Toolpaths()
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

func TestGenerateEncodeParseRoundTrip(t *testing.T) {
	paths := boxPaths(t)
	prog, err := Generate("box", paths, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	data, err := Marshal(prog)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "G21") || !strings.Contains(string(data), "G90") {
		t.Error("missing preamble")
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	// Simulated physics must agree between original and round-tripped.
	env := DimensionEliteEnvelope()
	d, err := Compare(prog, back, env)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Equivalent(1e-3) {
		t.Errorf("round trip not equivalent: %+v", d)
	}
}

// Support-role moves switch to the support tool of the dual-material
// machine and back, and the program still simulates clean.
func TestGenerateSupportToolChange(t *testing.T) {
	paths := boxPaths(t)
	a, b := geom.V2(12, 12), geom.V2(14, 12)
	paths[0].Moves = append([]slicer.Move{{From: a, To: b, Role: slicer.Support}}, paths[0].Moves...)
	prog, err := Generate("dual", paths, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var tools []string
	for _, c := range prog.Commands {
		if c.Code == "T0" || c.Code == "T1" {
			tools = append(tools, c.Code)
		}
	}
	if strings.Join(tools, ",") != "T1,T0" {
		t.Errorf("tool changes = %v, want [T1 T0]", tools)
	}
	rep, err := SimulateCtx(context.Background(), prog, DimensionEliteEnvelope())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Errorf("dual-material program violations: %v", rep.Violations)
	}
}

func TestGenerateBadOptions(t *testing.T) {
	paths := boxPaths(t)
	bad := DefaultOptions()
	bad.PrintFeed = 0
	if _, err := Generate("x", paths, bad); err == nil {
		t.Error("expected error for zero feed")
	}
}

func TestSimulateReport(t *testing.T) {
	paths := boxPaths(t)
	prog, err := Generate("box", paths, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := SimulateCtx(context.Background(), prog, DimensionEliteEnvelope())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("unexpected violations: %v", rep.Violations)
	}
	if rep.Layers != len(paths) {
		t.Errorf("layers = %d, want %d", rep.Layers, len(paths))
	}
	wantExtrude := slicer.TotalExtruded(paths)
	if math.Abs(rep.ExtrudeLength-wantExtrude) > 1e-3*wantExtrude {
		t.Errorf("extrude length = %v, want %v", rep.ExtrudeLength, wantExtrude)
	}
	if rep.PrintTime <= 0 {
		t.Error("print time should be positive")
	}
	if rep.ExtrudedE <= 0 {
		t.Error("extruded E should be positive")
	}
	// Bounds include the box with its travel moves.
	if rep.Bounds.Max.X < 29 || rep.Bounds.Min.X > 11 {
		t.Errorf("bounds = %+v", rep.Bounds)
	}
}

func TestSimulateEnvelopeViolation(t *testing.T) {
	prog := &Program{Commands: []Command{
		{Code: "G90"},
		{Code: "G1", Args: map[string]float64{"X": 500, "Y": 0, "F": 1000}},
	}}
	rep, err := SimulateCtx(context.Background(), prog, DimensionEliteEnvelope())
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("expected envelope violation")
	}
	if rep.Violations[0].Kind != "envelope" {
		t.Errorf("violation kind = %s", rep.Violations[0].Kind)
	}
}

func TestSimulateFeedrateViolation(t *testing.T) {
	prog := &Program{Commands: []Command{
		{Code: "G1", Args: map[string]float64{"X": 10, "F": 99999}},
	}}
	rep, err := SimulateCtx(context.Background(), prog, DimensionEliteEnvelope())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range rep.Violations {
		if v.Kind == "feedrate" {
			found = true
		}
	}
	if !found {
		t.Error("expected feedrate violation")
	}
}

func TestSimulateUnknownCommand(t *testing.T) {
	prog := &Program{Commands: []Command{{Code: "G999"}}}
	rep, err := SimulateCtx(context.Background(), prog, DimensionEliteEnvelope())
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Error("expected unknown-command violation")
	}
}

func TestSimulateEmpty(t *testing.T) {
	if _, err := SimulateCtx(context.Background(), &Program{}, DimensionEliteEnvelope()); err == nil {
		t.Error("expected error for empty program")
	}
}

func TestParseMalformed(t *testing.T) {
	if _, err := Unmarshal([]byte("G1 Xabc\n")); err == nil {
		t.Error("expected parse error for bad number")
	}
	if _, err := Unmarshal([]byte("G1 X\n")); err == nil {
		t.Error("expected parse error for empty word")
	}
}

func TestParseCommentsAndCase(t *testing.T) {
	p, err := Unmarshal([]byte("; header only\ng1 x5 y6 e0.1 f1200 ; move\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Commands) != 2 {
		t.Fatalf("commands = %d, want 2", len(p.Commands))
	}
	if p.Commands[1].Code != "G1" {
		t.Errorf("code = %q", p.Commands[1].Code)
	}
	if v, ok := p.Commands[1].Arg("X"); !ok || v != 5 {
		t.Errorf("X arg = %v %t", v, ok)
	}
	if p.Commands[0].Comment != "header only" {
		t.Errorf("comment = %q", p.Commands[0].Comment)
	}
}

// ExtractToolpaths reverses a program back into per-layer toolpaths — the
// tool-path reverse engineering of ref [20], used both by attackers (IP
// theft from stolen G-code) and by defenders (validating received G-code
// against the design intent).
func ExtractToolpaths(p *Program) ([]*slicer.LayerToolpath, error) {
	var out []*slicer.LayerToolpath
	var cur *slicer.LayerToolpath
	pos := geom.V2(0, 0)
	z := 0.0
	e := 0.0
	for _, c := range p.Commands {
		switch c.Code {
		case "G0", "G1":
			next := pos
			if v, ok := c.Arg("X"); ok {
				next.X = v
			}
			if v, ok := c.Arg("Y"); ok {
				next.Y = v
			}
			if v, ok := c.Arg("Z"); ok && v != z {
				z = v
				cur = &slicer.LayerToolpath{Index: len(out), Z: z}
				out = append(out, cur)
			}
			newE, hasE := c.Arg("E")
			role := slicer.Travel
			if hasE && newE > e {
				role = slicer.Infill // role detail is advisory after reversal
				e = newE
			}
			if cur != nil && !next.Eq(pos, 1e-12) {
				cur.Moves = append(cur.Moves, slicer.Move{From: pos, To: next, Role: role})
			}
			pos = next
		case "G92":
			if v, ok := c.Arg("E"); ok {
				e = v
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("gcode: no layers found")
	}
	return out, nil
}

func TestExtractToolpaths(t *testing.T) {
	paths := boxPaths(t)
	prog, err := Generate("box", paths, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	got, err := ExtractToolpaths(prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(paths) {
		t.Fatalf("extracted layers = %d, want %d", len(got), len(paths))
	}
	// Reverse-engineered extruded length matches the design intent
	// (ref [20]'s reconstruction guarantee).
	want := slicer.TotalExtruded(paths)
	have := slicer.TotalExtruded(got)
	if math.Abs(want-have) > 1e-3*want {
		t.Errorf("reversed extrusion %v, want %v", have, want)
	}
}

func TestExtractToolpathsNoLayers(t *testing.T) {
	prog := &Program{Commands: []Command{{Code: "G90"}}}
	if _, err := ExtractToolpaths(prog); err == nil {
		t.Error("expected error when no layers present")
	}
}

// The Table 1 "Slicing & G-code" attack/mitigation pair: a porosity attack
// (dropping infill) must be caught by the G-code comparison check.
func TestCompareDetectsPorosityAttack(t *testing.T) {
	paths := boxPaths(t)
	prog, err := Generate("box", paths, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Attack: remove every 4th extruding move (injected porosity).
	tampered := &Program{Name: prog.Name}
	n := 0
	for _, c := range prog.Commands {
		if c.Code == "G1" {
			if _, hasE := c.Arg("E"); hasE {
				n++
				if n%4 == 0 {
					continue
				}
			}
		}
		tampered.Commands = append(tampered.Commands, c)
	}
	env := DimensionEliteEnvelope()
	d, err := Compare(prog, tampered, env)
	if err != nil {
		t.Fatal(err)
	}
	if d.Equivalent(1e-3) {
		t.Error("porosity attack not detected")
	}
	if d.ExtrudeDelta >= 0 {
		t.Errorf("tampered program should extrude less: %+v", d)
	}
}

func TestCompareSelfEquivalent(t *testing.T) {
	paths := boxPaths(t)
	prog, _ := Generate("box", paths, DefaultOptions())
	d, err := Compare(prog, prog, DimensionEliteEnvelope())
	if err != nil {
		t.Fatal(err)
	}
	if !d.Equivalent(1e-9) {
		t.Errorf("self-compare not equivalent: %+v", d)
	}
}
