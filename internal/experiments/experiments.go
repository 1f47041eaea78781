// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment returns renderable report structures;
// `obfuscade paper` prints them and the top-level benchmarks time them.
// The per-experiment index lives in DESIGN.md §5 and the measured
// results in EXPERIMENTS.md.
package experiments

import (
	"context"
	"fmt"
	"math"

	"obfuscade/internal/brep"
	"obfuscade/internal/core"
	"obfuscade/internal/fea"
	"obfuscade/internal/gcode"
	"obfuscade/internal/geom"
	"obfuscade/internal/inspect"
	"obfuscade/internal/mech"
	"obfuscade/internal/mesh"
	"obfuscade/internal/parallel"
	"obfuscade/internal/printer"
	"obfuscade/internal/report"
	"obfuscade/internal/sidechannel"
	"obfuscade/internal/slicer"
	"obfuscade/internal/stl"
	"obfuscade/internal/supplychain"
	"obfuscade/internal/tessellate"
	"obfuscade/internal/voxel"
)

// splitBarPart builds the spline-split tensile bar used throughout §3.1.
func splitBarPart() (*brep.Part, error) {
	p, err := brep.NewTensileBar("bar", brep.DefaultTensileBar())
	if err != nil {
		return nil, err
	}
	s, err := brep.SplitSplineThroughGauge(brep.DefaultTensileBar(), 2, 3)
	if err != nil {
		return nil, err
	}
	if err := brep.SplitBySpline(p, "bar", s); err != nil {
		return nil, err
	}
	return p, nil
}

func intactBarPart() (*brep.Part, error) {
	return brep.NewTensileBar("bar", brep.DefaultTensileBar())
}

// runPipeline executes the process chain for a fresh split or intact bar.
func runPipeline(split bool, res tessellate.Resolution, o mech.Orientation,
	prof printer.Profile) (*supplychain.Run, error) {
	var part *brep.Part
	var err error
	if split {
		part, err = splitBarPart()
	} else {
		part, err = intactBarPart()
	}
	if err != nil {
		return nil, err
	}
	pl := supplychain.Pipeline{Resolution: res, Orientation: o, Printer: prof}
	return pl.ExecuteCtx(context.Background(), part)
}

// Table1 regenerates the paper's Table 1 (risks and mitigations per AM
// stage) and verifies that every executable attack in the catalog is
// caught by its paired mitigation.
func Table1() (*report.Table, error) {
	// Exercise the executable attack/mitigation pairs before rendering,
	// so the table is backed by working checks rather than prose.
	part, err := intactBarPart()
	if err != nil {
		return nil, err
	}
	m, err := tessellate.Tessellate(part, tessellate.Coarse)
	if err != nil {
		return nil, err
	}
	ref := m.Clone()

	// STL void attack vs geometry validation.
	if err := supplychain.VoidAttack(m, 7); err != nil {
		return nil, err
	}
	if len(m.Validate(1e-9)) == 0 {
		return nil, fmt.Errorf("experiments: void attack evaded validation")
	}
	// Scaling attack vs reference diff.
	m2 := ref.Clone()
	if err := supplychain.ScaleAttack(m2, 1.01); err != nil {
		return nil, err
	}
	if stl.Compare(ref, m2).Identical(1e-6) {
		t := "experiments: scaling attack evaded diff"
		return nil, fmt.Errorf("%s", t)
	}
	return supplychain.Table1(), nil
}

// Table2 regenerates the tensile-property table: four groups (spline/
// intact x x-y/x-z), Coarse STL, FDM printer, n replicates. The groups
// run concurrently; group i always derives its noise from seed+i, so the
// table matches a serial run.
func Table2(n int, seed int64) (*report.Table, []mech.GroupResult, error) {
	prof := printer.DimensionElite()
	type g struct {
		name  string
		split bool
		o     mech.Orientation
	}
	cfgs := []g{
		{"Spline x-y", true, mech.XY},
		{"Spline x-z", true, mech.XZ},
		{"Intact x-y", false, mech.XY},
		{"Intact x-z", false, mech.XZ},
	}
	groups, err := parallel.Map(context.Background(), len(cfgs), 0, func(i int) (mech.GroupResult, error) {
		cfg := cfgs[i]
		run, err := runPipeline(cfg.split, tessellate.Coarse, cfg.o, prof)
		if err != nil {
			return mech.GroupResult{}, fmt.Errorf("experiments: %s: %w", cfg.name, err)
		}
		pl := supplychain.Pipeline{Resolution: tessellate.Coarse, Orientation: cfg.o, Printer: prof}
		return pl.TestPrinted(run, cfg.name, n, seed+int64(i))
	})
	if err != nil {
		return nil, nil, err
	}

	t := &report.Table{
		Title:   "Table 2: Tensile properties of specimens containing spline split feature (FDM, Coarse STL)",
		Headers: []string{"Property", "Spline x-y", "Spline x-z", "Intact x-y", "Intact x-z"},
	}
	row := func(name string, f func(mech.GroupResult) mech.Stat) {
		cells := []string{name}
		for _, g := range groups {
			cells = append(cells, f(g).String())
		}
		t.AddRow(cells...)
	}
	row("Young's modulus (GPa)", func(g mech.GroupResult) mech.Stat { return g.Young })
	row("Ultimate tensile strength (MPa)", func(g mech.GroupResult) mech.Stat { return g.UTS })
	row("Failure strain (mm/mm)", func(g mech.GroupResult) mech.Stat { return g.FailureStrain })
	row("Toughness (kJ/m^3)", func(g mech.GroupResult) mech.Stat { return g.Toughness })
	return t, groups, nil
}

// Table3 regenerates the embedded-sphere printing results: the material
// deposited for the sphere feature in each of the four CAD variants.
func Table3() (*report.Table, error) {
	prof := printer.DimensionElite()
	size := geom.V3(25.4, 12.7, 12.7)
	c := geom.V3(12.7, 6.35, 6.35)
	const r = 3.175

	t := &report.Table{
		Title:   "Table 3: 3D printing results for four rectangular prism models (Fine STL)",
		Headers: []string{"CAD operation", "CAD sphere feature", "Material printed for sphere feature"},
	}
	variants := []struct {
		op, feat string
		opts     brep.EmbedOpts
	}{
		{"Without material removal", "Solid", brep.EmbedOpts{}},
		{"Without material removal", "Surface", brep.EmbedOpts{SurfaceBody: true}},
		{"With material removal", "Solid", brep.EmbedOpts{MaterialRemoval: true}},
		{"With material removal", "Surface", brep.EmbedOpts{MaterialRemoval: true, SurfaceBody: true}},
	}
	rows, err := parallel.Map(context.Background(), len(variants), 0, func(i int) (string, error) {
		tc := variants[i]
		p, err := brep.NewRectPrism("prism", size)
		if err != nil {
			return "", err
		}
		if err := brep.EmbedSphere(p, "prism", c, r, tc.opts); err != nil {
			return "", err
		}
		pl := supplychain.Pipeline{
			Resolution:  tessellate.Fine,
			Orientation: mech.XY,
			Printer:     prof,
			PrintOpts:   printer.Options{KeepSupport: true},
		}
		run, err := pl.ExecuteCtx(context.Background(), p)
		if err != nil {
			return "", err
		}
		x, y, z := run.Build.Grid.Locate(c)
		switch run.Build.Grid.At(x, y, z) {
		case voxel.Model:
			return "Model material", nil
		case voxel.Support:
			return "Support material", nil
		default:
			return "Empty", nil
		}
	})
	if err != nil {
		return nil, err
	}
	for i, label := range rows {
		t.AddRow(variants[i].op, variants[i].feat, label)
	}
	return t, nil
}

// Fig1 traces the full AM process chain on the protected bar, reporting
// each stage's artifact as in the paper's Fig. 1 block diagram.
func Fig1() (*report.Table, error) {
	part, err := splitBarPart()
	if err != nil {
		return nil, err
	}
	pl := supplychain.Pipeline{
		Resolution:  tessellate.Fine,
		Orientation: mech.XY,
		Printer:     printer.DimensionElite(),
		RunFEA:      true,
	}
	run, err := pl.ExecuteCtx(context.Background(), part)
	if err != nil {
		return nil, err
	}
	sim, err := gcode.SimulateCtx(context.Background(), run.GCode, gcode.DimensionEliteEnvelope())
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:   "Fig. 1: AM process chain artifacts (CAD -> FEA -> STL -> slice/G-code -> print -> test)",
		Headers: []string{"Stage", "Artifact", "Key figure"},
	}
	t.AddRow("CAD model", fmt.Sprintf("%d bodies, %d features", len(part.Bodies), len(part.History)),
		fmt.Sprintf("%d bytes native CAD", len(run.CADBytes)))
	t.AddRow("FEA optimisation", "plane-stress check of the gauge section",
		fmt.Sprintf("Kt = %.2f at split tip", run.DesignKt))
	t.AddRow("STL export", fmt.Sprintf("%d triangles", run.STLStats.Triangles),
		fmt.Sprintf("%d bytes binary STL", len(run.STLBytes)))
	t.AddRow("Slicing", fmt.Sprintf("%d layers @ %.4f mm", len(run.Sliced.Layers), run.Sliced.Opts.LayerHeight),
		fmt.Sprintf("%d toolpath moves", countMoves(run.Toolpaths)))
	t.AddRow("G-code", fmt.Sprintf("%d commands", len(run.GCode.Commands)),
		fmt.Sprintf("%.1f min print, %.0f mm extruded", sim.PrintTime/60, sim.ExtrudeLength))
	t.AddRow("3D printing", fmt.Sprintf("%.0f mm^3 model, %.0f mm^3 support",
		run.Build.ModelVolume, run.Build.SupportVolume),
		fmt.Sprintf("%d seams recorded", len(run.Build.Seams)))
	t.AddRow("Testing", "CT + visual + tensile",
		fmt.Sprintf("%d internal cavities, disruption %.3f mm",
			len(run.Build.Grid.InternalCavities()), run.Build.SurfaceDisruption))
	return t, nil
}

func countMoves(paths []*slicer.LayerToolpath) int {
	n := 0
	for _, p := range paths {
		n += len(p.Moves)
	}
	return n
}

// Fig2 renders the attack taxonomy tree.
func Fig2() string {
	out := "Fig. 2: Taxonomy of attacks in additive manufacturing\n"
	supplychain.Taxonomy().Walk(func(depth int, n *supplychain.TaxonomyNode) {
		for i := 0; i < depth; i++ {
			out += "  "
		}
		out += n.Name
		if len(n.AttackIDs) > 0 {
			out += fmt.Sprintf("  [%v]", n.AttackIDs)
		}
		out += "\n"
	})
	return out
}

// Fig3 reports the artifact stages of one design (CAD model, FEA
// optimisation, slicing/tool path, STL conversion) as quantitative stage
// statistics.
func Fig3() (*report.Table, error) {
	part, err := intactBarPart()
	if err != nil {
		return nil, err
	}
	cad, err := brep.Save(part)
	if err != nil {
		return nil, err
	}
	// FEA on the pristine gauge section.
	sol, kt, err := fea.SplitTipAnalysis(33, 6, 3.2, 2000, 0.35, 0, 60)
	if err != nil {
		return nil, err
	}
	maxStress, _, _ := sol.MaxStress()
	t := &report.Table{
		Title:   "Fig. 3: 3D artifact stages of the tensile bar",
		Headers: []string{"Stage", "Quantity", "Value"},
	}
	t.AddRow("CAD model", "native file size", fmt.Sprintf("%d bytes", len(cad)))
	t.AddRow("FEA model", "uniform gauge stress / Kt",
		fmt.Sprintf("%.1f MPa / %.2f", maxStress, kt))
	for _, res := range tessellate.Presets() {
		m, err := tessellate.Tessellate(part, res)
		if err != nil {
			return nil, err
		}
		t.AddRow("STL ("+res.Name+")", "triangles / bytes",
			fmt.Sprintf("%d / %d", m.TriangleCount(), stl.BinarySize(m.TriangleCount())))
	}
	m, _ := tessellate.Tessellate(part, tessellate.Fine)
	sliced, err := slicer.SliceIndexedCtx(context.Background(), m, slicer.DefaultOptions(), nil)
	if err != nil {
		return nil, err
	}
	paths, err := sliced.Toolpaths()
	if err != nil {
		return nil, err
	}
	t.AddRow("Slicing & tool path", "layers / moves",
		fmt.Sprintf("%d / %d", len(sliced.Layers), countMoves(paths)))
	return t, nil
}

// Fig4 measures the tessellation-induced gap along the spline split as a
// function of the STL resolution: the paper's Fig. 4 magnified views made
// quantitative.
func Fig4() (*report.Series, *report.Table, error) {
	part, err := splitBarPart()
	if err != nil {
		return nil, nil, err
	}
	s := &report.Series{
		Name:   "Fig. 4: tessellation mismatch along the spline split",
		XLabel: "deviation(mm)",
		YLabel: "max-gap(mm)",
	}
	t := &report.Table{
		Title: "Fig. 4: gap geometry along the split",
		Headers: []string{"Resolution", "Deviation (mm)", "Max mismatch (mm)",
			"Interface mean width (mm)", "Crossings/layer (x-y)"},
	}
	for _, res := range tessellate.Presets() {
		mm, ok, err := tessellate.SplitMismatch(part, res)
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			return nil, nil, fmt.Errorf("experiments: no split boundary found")
		}
		m, err := tessellate.Tessellate(part, res)
		if err != nil {
			return nil, nil, err
		}
		sliced, err := slicer.SliceIndexedCtx(context.Background(), m, slicer.DefaultOptions(), nil)
		if err != nil {
			return nil, nil, err
		}
		st := sliced.InterfaceStatsBetween("bar-upper", "bar-lower")
		s.Add(res.Deviation, mm)
		t.AddRow(res.Name, fmt.Sprintf("%.3f", res.Deviation),
			fmt.Sprintf("%.4f", mm), fmt.Sprintf("%.4f", st.MeanWidth),
			fmt.Sprintf("%.0f", st.MeanCrossings))
	}
	return s, t, nil
}

// Fig5 reports the meaning of the STL resolution parameters: angle and
// deviation per preset and the resulting triangle counts / file sizes for
// the tensile bar.
func Fig5() (*report.Table, error) {
	part, err := intactBarPart()
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:   "Fig. 5: STL resolution parameters and their effect",
		Headers: []string{"Setting", "Angle (deg)", "Deviation (mm)", "Triangles", "Binary STL bytes"},
	}
	for _, res := range tessellate.Presets() {
		m, err := tessellate.Tessellate(part, res)
		if err != nil {
			return nil, err
		}
		t.AddRow(res.Name, fmt.Sprintf("%.0f", res.AngleDeg),
			fmt.Sprintf("%.3f", res.Deviation),
			fmt.Sprintf("%d", m.TriangleCount()),
			fmt.Sprintf("%d", stl.BinarySize(m.TriangleCount())))
	}
	return t, nil
}

// Fig6 reports the two print orientations: build height, layer count and
// footprint for each.
func Fig6() (*report.Table, error) {
	prof := printer.DimensionElite()
	t := &report.Table{
		Title: "Fig. 6: print orientations x-y and x-z",
		Headers: []string{"Orientation", "Footprint (mm)", "Build height (mm)", "Layers",
			"Support (mm^3)"},
	}
	for _, o := range []mech.Orientation{mech.XY, mech.XZ} {
		run, err := runPipeline(false, tessellate.Coarse, o, prof)
		if err != nil {
			return nil, err
		}
		size := run.Mesh.Bounds().Size()
		t.AddRow(o.String(),
			fmt.Sprintf("%.0f x %.1f", size.X, size.Y),
			fmt.Sprintf("%.1f", size.Z),
			fmt.Sprintf("%d", len(run.Sliced.Layers)),
			fmt.Sprintf("%.0f", run.Build.SupportVolume))
	}
	return t, nil
}

// Fig7 measures the x-z slicing discontinuity: the fraction of layers in
// which the two split bodies are fully separated, per STL resolution —
// non-zero at every resolution, the paper's key x-z observation.
func Fig7() (*report.Table, error) {
	prof := printer.DimensionElite()
	t := &report.Table{
		Title: "Fig. 7: spline split discontinuity in x-z orientation",
		Headers: []string{"Resolution", "Discontinuous layers", "Seam bond quality",
			"Max void width (mm)"},
	}
	presets := tessellate.Presets()
	rows, err := parallel.Map(context.Background(), len(presets), 0, func(i int) ([4]string, error) {
		res := presets[i]
		run, err := runPipeline(true, res, mech.XZ, prof)
		if err != nil {
			return [4]string{}, err
		}
		seam := run.Build.SeamBetween("bar-upper", "bar-lower")
		if seam == nil {
			return [4]string{}, fmt.Errorf("experiments: x-z seam missing at %s", res.Name)
		}
		return [4]string{res.Name,
			fmt.Sprintf("%.0f%%", 100*seam.DiscontinuousFraction),
			fmt.Sprintf("%.2f", seam.BondQuality),
			fmt.Sprintf("%.4f", seam.Stats.MaxWidth)}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		t.AddRow(r[0], r[1], r[2], r[3])
	}
	return t, nil
}

// Fig8 measures the x-y surface disruption: visible at Coarse STL, absent
// at Fine/Custom, per the paper's Fig. 8 comparison with intact prints.
func Fig8() (*report.Table, error) {
	prof := printer.DimensionElite()
	t := &report.Table{
		Title: "Fig. 8: spline split surface appearance in x-y orientation",
		Headers: []string{"Specimen", "Resolution", "Disruption width (mm)",
			"Visible?", "Seam bond quality"},
	}
	// The last job is the intact coarse reference row.
	presets := tessellate.Presets()
	rows, err := parallel.Map(context.Background(), len(presets)+1, 0, func(i int) ([5]string, error) {
		if i == len(presets) {
			run, err := runPipeline(false, tessellate.Coarse, mech.XY, prof)
			if err != nil {
				return [5]string{}, err
			}
			return [5]string{"Intact", "coarse",
				fmt.Sprintf("%.4f", run.Build.SurfaceDisruption), "no", "1.00"}, nil
		}
		res := presets[i]
		run, err := runPipeline(true, res, mech.XY, prof)
		if err != nil {
			return [5]string{}, err
		}
		visible := "no"
		if run.Build.SurfaceDisrupted() {
			visible = "yes"
		}
		bond := 1.0
		if s := run.Build.SeamBetween("bar-upper", "bar-lower"); s != nil {
			bond = s.BondQuality
		}
		return [5]string{"Spline", res.Name,
			fmt.Sprintf("%.4f", run.Build.SurfaceDisruption), visible,
			fmt.Sprintf("%.2f", bond)}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		t.AddRow(r[0], r[1], r[2], r[3], r[4])
	}
	return t, nil
}

// Fig9 runs the split-tip stress analysis: peak stress location and the
// concentration factor that drives premature failure.
func Fig9() (*report.Table, error) {
	t := &report.Table{
		Title:   "Fig. 9: tensile failure initiation at the spline tip",
		Headers: []string{"Slit depth (mm)", "Kt", "Peak stress site (x, y) mm", "Nominal stress (MPa)"},
	}
	for _, depth := range []float64{0, 0.75, 1.5} {
		sol, kt, err := fea.SplitTipAnalysis(33, 6, 3.2, 2000, 0.35, depth, 80)
		if err != nil {
			return nil, err
		}
		_, ix, iy := sol.MaxStress()
		t.AddRow(fmt.Sprintf("%.2f", depth), fmt.Sprintf("%.2f", kt),
			fmt.Sprintf("(%.1f, %.1f)", float64(ix)*sol.Model.DX, float64(iy)*sol.Model.DY),
			fmt.Sprintf("%.1f", sol.NominalStress()))
	}
	return t, nil
}

// Fig10 reproduces the embedded-sphere artifacts: tool-path material at
// the sphere, support volume, and the cut-open (cavity) state after
// support wash-out, for the four CAD variants.
func Fig10() (*report.Table, error) {
	prof := printer.DimensionElite()
	size := geom.V3(25.4, 12.7, 12.7)
	c := geom.V3(12.7, 6.35, 6.35)
	const r = 3.175
	t := &report.Table{
		Title: "Fig. 10: embedded-sphere prints (sliced material, support, cavity after wash-out)",
		Headers: []string{"Variant", "Sphere material", "Support volume (mm^3)",
			"Cavity after wash", "Cavity volume (mm^3)"},
	}
	variants := []struct {
		name string
		opts brep.EmbedOpts
	}{
		{"solid, no removal", brep.EmbedOpts{}},
		{"surface, no removal", brep.EmbedOpts{SurfaceBody: true}},
		{"solid, removal", brep.EmbedOpts{MaterialRemoval: true}},
		{"surface, removal", brep.EmbedOpts{MaterialRemoval: true, SurfaceBody: true}},
	}
	rows, err := parallel.Map(context.Background(), len(variants), 0, func(i int) ([5]string, error) {
		tc := variants[i]
		p, err := brep.NewRectPrism("prism", size)
		if err != nil {
			return [5]string{}, err
		}
		if err := brep.EmbedSphere(p, "prism", c, r, tc.opts); err != nil {
			return [5]string{}, err
		}
		pl := supplychain.Pipeline{
			Resolution: tessellate.Fine, Orientation: mech.XY, Printer: prof,
			PrintOpts: printer.Options{KeepSupport: true},
		}
		run, err := pl.ExecuteCtx(context.Background(), p)
		if err != nil {
			return [5]string{}, err
		}
		x, y, z := run.Build.Grid.Locate(c)
		mat := run.Build.Grid.At(x, y, z).String()
		supportVol := run.Build.SupportVolume
		// Wash out and inspect.
		washed := run.Build.Grid.Clone()
		washed.Replace(voxel.Support, voxel.Empty)
		cavities := washed.InternalCavities()
		cav := "none"
		var cavVol float64
		if len(cavities) > 0 {
			cav = "yes"
			cavVol = float64(cavities[0].Voxels) * washed.VoxelVolume()
		}
		return [5]string{tc.name, mat, fmt.Sprintf("%.0f", supportVol), cav,
			fmt.Sprintf("%.1f", cavVol)}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		t.AddRow(r[0], r[1], r[2], r[3], r[4])
	}
	return t, nil
}

// PolyJetReplication repeats the spline-split orientation/resolution
// conclusions on the material-jetting printer profile (Objet30 Pro,
// 16 µm layers) — the paper's §3.1 cross-printer validation. The layer
// count is two orders of magnitude higher, so only Coarse and Custom are
// run.
func PolyJetReplication() (*report.Table, error) {
	prof := printer.Objet30Pro()
	t := &report.Table{
		Title: "PolyJet replication (Objet30 Pro, VeroClear): feature presence vs resolution/orientation",
		Headers: []string{"Resolution", "Orientation", "Discontinuous layers",
			"Surface disruption (mm)", "Feature manifested?"},
	}
	type job struct {
		res tessellate.Resolution
		o   mech.Orientation
	}
	var jobs []job
	for _, res := range []tessellate.Resolution{tessellate.Coarse, tessellate.Custom} {
		for _, o := range []mech.Orientation{mech.XY, mech.XZ} {
			jobs = append(jobs, job{res, o})
		}
	}
	rows, err := parallel.Map(context.Background(), len(jobs), 0, func(i int) ([5]string, error) {
		j := jobs[i]
		run, err := runPipeline(true, j.res, j.o, prof)
		if err != nil {
			return [5]string{}, err
		}
		disc := 0.0
		if s := run.Build.SeamBetween("bar-upper", "bar-lower"); s != nil {
			disc = s.DiscontinuousFraction
		}
		manifested := "no"
		if disc > 0.1 || run.Build.SurfaceDisrupted() {
			manifested = "yes"
		}
		return [5]string{j.res.Name, j.o.String(), fmt.Sprintf("%.0f%%", 100*disc),
			fmt.Sprintf("%.4f", run.Build.SurfaceDisruption), manifested}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		t.AddRow(r[0], r[1], r[2], r[3], r[4])
	}
	return t, nil
}

// SideChannelLeakage reproduces the §2 information-leakage discussion:
// tool-path reconstruction error from acoustic/magnetic emanations versus
// measurement noise.
func SideChannelLeakage() (*report.Table, error) {
	run, err := runPipeline(false, tessellate.Coarse, mech.XY, printer.DimensionElite())
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:   "Side-channel IP leakage (refs [4], [16]): tool-path reconstruction",
		Headers: []string{"Frequency noise", "Mean error (mm)", "Recovered extrusion (mm)", "True extrusion (mm)"},
	}
	truthLen := slicer.TotalExtruded(run.Toolpaths)
	for _, noise := range []float64{0, 0.01, 0.05} {
		opts := sidechannel.DefaultOptions()
		opts.FreqNoiseStd = noise
		tr, err := sidechannel.Emanate(run.Toolpaths, opts)
		if err != nil {
			return nil, err
		}
		rec, err := sidechannel.Reconstruct(tr, opts)
		if err != nil {
			return nil, err
		}
		truth := sidechannel.GroundTruth(run.Toolpaths)
		meanErr, err := sidechannel.MeanError(rec, truth)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.0f%%", 100*noise), fmt.Sprintf("%.3f", meanErr),
			fmt.Sprintf("%.0f", rec.ExtrudedLength), fmt.Sprintf("%.0f", truthLen))
	}
	return t, nil
}

// KeySpace runs the logic-locking analysis: the quality matrix over the
// full processing key space and the brute-force cost estimate.
func KeySpace() (*report.Table, core.KeySpaceReport, error) {
	prot, err := core.NewProtectedBar("bar", false)
	if err != nil {
		return nil, core.KeySpaceReport{}, err
	}
	rep, entries, err := core.AnalyzeKeySpace(prot, printer.DimensionElite())
	if err != nil {
		return nil, core.KeySpaceReport{}, err
	}
	t := core.MatrixTable(entries)
	return t, rep, nil
}

// AblationHealing quantifies the design choice DESIGN.md calls out: how
// the printer's road-healing width changes the x-y seam bond (and thus
// whether the coarse x-y print is merely degraded or fully defective).
func AblationHealing() (*report.Table, error) {
	part, err := splitBarPart()
	if err != nil {
		return nil, err
	}
	m, err := tessellate.Tessellate(part, tessellate.Coarse)
	if err != nil {
		return nil, err
	}
	sliced, err := slicer.SliceIndexedCtx(context.Background(), m, slicer.DefaultOptions(), nil)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:   "Ablation: road healing fraction vs coarse x-y seam bond quality",
		Headers: []string{"Heal fraction", "Bond quality", "Grade threshold"},
	}
	for _, heal := range []float64{0.1, 0.25, 0.5, 0.75, 1.0} {
		prof := printer.DimensionElite()
		prof.HealFraction = heal
		b, err := printer.PrintCtx(context.Background(), sliced, prof, printer.Options{})
		if err != nil {
			return nil, err
		}
		seam := b.SeamBetween("bar-upper", "bar-lower")
		if seam == nil {
			return nil, fmt.Errorf("experiments: seam missing")
		}
		grade := "good"
		switch {
		case seam.BondQuality < 0.3:
			grade = "defective"
		case seam.BondQuality < 0.7:
			grade = "degraded"
		}
		t.AddRow(fmt.Sprintf("%.2f", heal), fmt.Sprintf("%.3f", seam.BondQuality), grade)
	}
	return t, nil
}

// AblationAmplitude sweeps the split-curve wave amplitude: larger
// amplitude lengthens the spline (the paper quotes arc length 3.5x the
// gauge width) and strengthens the x-z sabotage without changing the x-y
// appearance at high resolution.
func AblationAmplitude() (*report.Table, error) {
	prof := printer.DimensionElite()
	t := &report.Table{
		Title: "Ablation: split amplitude vs seam geometry",
		Headers: []string{"Amplitude (mm)", "Arc length (mm)", "x-z discontinuous layers",
			"x-y disruption (mm)"},
	}
	for _, amp := range []float64{0.5, 1.0, 2.0, 2.5} {
		d := brep.DefaultTensileBar()
		s, err := brep.SplitSplineThroughGauge(d, amp, 3)
		if err != nil {
			return nil, err
		}
		arc := s.ArcLength()
		build := func(o mech.Orientation) (*printer.Build, error) {
			p, err := brep.NewTensileBar("bar", d)
			if err != nil {
				return nil, err
			}
			s2, err := brep.SplitSplineThroughGauge(d, amp, 3)
			if err != nil {
				return nil, err
			}
			if err := brep.SplitBySpline(p, "bar", s2); err != nil {
				return nil, err
			}
			pl := supplychain.Pipeline{Resolution: tessellate.Coarse, Orientation: o, Printer: prof}
			run, err := pl.ExecuteCtx(context.Background(), p)
			if err != nil {
				return nil, err
			}
			return run.Build, nil
		}
		xz, err := build(mech.XZ)
		if err != nil {
			return nil, err
		}
		xy, err := build(mech.XY)
		if err != nil {
			return nil, err
		}
		disc := 0.0
		if seam := xz.SeamBetween("bar-upper", "bar-lower"); seam != nil {
			disc = seam.DiscontinuousFraction
		}
		t.AddRow(fmt.Sprintf("%.1f", amp), fmt.Sprintf("%.1f", arc),
			fmt.Sprintf("%.0f%%", 100*disc),
			fmt.Sprintf("%.4f", xy.SurfaceDisruption))
	}
	return t, nil
}

// STLTheft evaluates the paper's primary counterfeiting threat — a stolen
// STL file — across export resolutions and print orientations. The STL
// freezes the resolution component of the process key, so an owner who
// releases only Coarse exports leaves the thief no clean option.
func STLTheft() (*report.Table, error) {
	prof := printer.DimensionElite()
	t := &report.Table{
		Title: "Counterfeiting from a stolen STL: export resolution is frozen in the file",
		Headers: []string{"Stolen export", "Print orientation", "Grade",
			"Surface (mm)", "Discont. layers"},
	}
	type job struct {
		res tessellate.Resolution
		o   mech.Orientation
	}
	var jobs []job
	for _, res := range tessellate.Presets() {
		for _, o := range []mech.Orientation{mech.XY, mech.XZ} {
			jobs = append(jobs, job{res, o})
		}
	}
	rows, err := parallel.Map(context.Background(), len(jobs), 0, func(i int) ([5]string, error) {
		j := jobs[i]
		part, err := splitBarPart()
		if err != nil {
			return [5]string{}, err
		}
		m, err := tessellate.Tessellate(part, j.res)
		if err != nil {
			return [5]string{}, err
		}
		data, err := stl.Marshal(m, stl.Binary, part.Name)
		if err != nil {
			return [5]string{}, err
		}
		_, q, err := core.ManufactureFromSTL(data, j.o, prof)
		if err != nil {
			return [5]string{}, err
		}
		return [5]string{j.res.Name, j.o.String(), q.Grade.String(),
			fmt.Sprintf("%.4f", q.SurfaceDisruptionMM),
			fmt.Sprintf("%.0f%%", 100*q.DiscontinuousFraction)}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		t.AddRow(r[0], r[1], r[2], r[3], r[4])
	}
	return t, nil
}

// AblationMultiSplit compares one vs two stacked split features: more
// seams, stronger sabotage under the wrong key, unchanged quality under
// the correct key.
func AblationMultiSplit() (*report.Table, error) {
	prof := printer.DimensionElite()
	t := &report.Table{
		Title:   "Ablation: number of split features",
		Headers: []string{"Features", "Key", "Grade", "Seams", "Failure strain"},
	}
	single, err := core.NewProtectedBar("bar", false)
	if err != nil {
		return nil, err
	}
	double, err := core.NewDoubleSplitBar("bar")
	if err != nil {
		return nil, err
	}
	for _, tc := range []struct {
		label string
		prot  *core.Protected
	}{
		{"1 split", single},
		{"2 splits", double},
	} {
		for _, key := range []core.Key{
			tc.prot.Manifest.Key,
			{Resolution: tessellate.Coarse, Orientation: mech.XZ},
		} {
			res, err := core.ManufactureMemoCtx(context.Background(), tc.prot, key, prof, nil)
			if err != nil {
				return nil, err
			}
			spec := mech.Specimen{Mat: mech.ABS(key.Orientation)}
			if res.Quality.SeamBondQuality < 1 {
				spec.SeamPresent = true
				spec.SeamQuality = res.Quality.SeamBondQuality
				spec.Kt = 2.6
				spec.ModulusKnockdown = 0.03
			}
			g, err := mech.TestGroupCtx(context.Background(), "abl", spec, 5, 11)
			if err != nil {
				return nil, err
			}
			t.AddRow(tc.label, key.String(), res.Quality.Grade.String(),
				fmt.Sprintf("%d", len(res.Run.Build.Seams)),
				g.FailureStrain.String())
		}
	}
	return t, nil
}

// ServiceLife extends Table 2 with the paper's "inferior service life"
// claim: Coffin-Manson fatigue lives at a common duty strain amplitude
// for the four specimen groups.
func ServiceLife() (*report.Table, error) {
	prof := printer.DimensionElite()
	const amplitude = 0.004
	t := &report.Table{
		Title:   "Service life: fatigue cycles at strain amplitude 0.004 (Coarse STL)",
		Headers: []string{"Specimen", "Seam bond", "Cycles to failure", "vs intact"},
	}
	type cfg struct {
		name  string
		split bool
		o     mech.Orientation
	}
	intactLife := map[mech.Orientation]float64{}
	for _, c := range []cfg{
		{"Intact x-y", false, mech.XY},
		{"Intact x-z", false, mech.XZ},
		{"Spline x-y", true, mech.XY},
		{"Spline x-z", true, mech.XZ},
	} {
		run, err := runPipeline(c.split, tessellate.Coarse, c.o, prof)
		if err != nil {
			return nil, err
		}
		spec := mech.Specimen{Mat: mech.ABS(c.o)}
		bond := 1.0
		if seam := run.Build.SeamBetween("bar-upper", "bar-lower"); seam != nil {
			spec.SeamPresent = true
			spec.SeamQuality = seam.BondQuality
			spec.Kt = 2.6
			bond = seam.BondQuality
		}
		life, err := mech.FatigueLife(spec, amplitude)
		if err != nil {
			return nil, err
		}
		ratio := "1.0x"
		if c.split {
			ratio = fmt.Sprintf("%.2fx", life/intactLife[c.o])
		} else {
			intactLife[c.o] = life
		}
		t.AddRow(c.name, fmt.Sprintf("%.2f", bond), fmt.Sprintf("%.0f", life), ratio)
	}
	return t, nil
}

// NDT runs the non-destructive testing bench: CT comparison and
// dimensional metrology of a clean print and three attacked prints
// against the design intent (Table 1's "Testing" row, executable).
func NDT() (*report.Table, error) {
	prof := printer.DimensionElite()
	size := geom.V3(25.4, 12.7, 12.7)

	design, err := brep.NewRectPrism("prism", size)
	if err != nil {
		return nil, err
	}
	designMesh, err := tessellate.Tessellate(design, tessellate.Fine)
	if err != nil {
		return nil, err
	}
	ref, err := inspect.VoxelizeMesh(designMesh, 0.25, prof.LayerHeight)
	if err != nil {
		return nil, err
	}

	printIt := func(m *mesh.Mesh) (*printer.Build, error) {
		opts := slicer.DefaultOptions()
		opts.LayerHeight = prof.LayerHeight
		sliced, err := slicer.SliceIndexedCtx(context.Background(), m, opts, nil)
		if err != nil {
			return nil, err
		}
		return printer.PrintCtx(context.Background(), sliced, prof, printer.Options{})
	}

	t := &report.Table{
		Title: "NDT bench: CT + metrology vs supply-chain attacks",
		Headers: []string{"Scenario", "CT match", "Missing (mm^3)", "Cavities",
			"Dim delta (mm)", "Flagged?"},
	}
	addRow := func(name string, b *printer.Build) error {
		ct, err := inspect.CTCompare(b.Grid, ref)
		if err != nil {
			return err
		}
		dims := inspect.MeasureDimensions(b.Grid, designMesh)
		flagged := ct.Anomalous(0.08) || !dims.WithinTolerance(0.6)
		mark := "no"
		if flagged {
			mark = "YES"
		}
		t.AddRow(name, fmt.Sprintf("%.2f", ct.MatchFraction),
			fmt.Sprintf("%.0f", ct.MissingVolume),
			fmt.Sprintf("%d", ct.InternalCavities),
			fmt.Sprintf("%.2f", dims.Delta.Abs().Len()),
			mark)
		return nil
	}

	clean, err := printIt(designMesh.Clone())
	if err != nil {
		return nil, err
	}
	if err := addRow("clean print", clean); err != nil {
		return nil, err
	}

	trojanPart, err := brep.NewRectPrism("prism", size)
	if err != nil {
		return nil, err
	}
	if err := supplychain.CADTrojanAttack(trojanPart, nil); err != nil {
		return nil, err
	}
	trojanMesh, err := tessellate.Tessellate(trojanPart, tessellate.Fine)
	if err != nil {
		return nil, err
	}
	trojan, err := printIt(trojanMesh)
	if err != nil {
		return nil, err
	}
	if err := addRow("CAD Trojan cavity", trojan); err != nil {
		return nil, err
	}

	scaled := designMesh.Clone()
	if err := supplychain.ScaleAttack(scaled, 1.04); err != nil {
		return nil, err
	}
	scaledBuild, err := printIt(scaled)
	if err != nil {
		return nil, err
	}
	if err := addRow("4% scaling attack", scaledBuild); err != nil {
		return nil, err
	}

	// Porosity attack on the G-code, printed from the tampered program.
	opts := slicer.DefaultOptions()
	opts.LayerHeight = prof.LayerHeight
	sliced, err := slicer.SliceIndexedCtx(context.Background(), designMesh.Clone(), opts, nil)
	if err != nil {
		return nil, err
	}
	paths, err := sliced.Toolpaths()
	if err != nil {
		return nil, err
	}
	prog, err := gcode.Generate("prism", paths, gcode.DefaultOptions())
	if err != nil {
		return nil, err
	}
	if err := supplychain.PorosityAttack(prog, 3); err != nil {
		return nil, err
	}
	porous, err := printer.PrintGCode(prog, prof, printer.Options{})
	if err != nil {
		return nil, err
	}
	if err := addRow("G-code porosity attack", porous); err != nil {
		return nil, err
	}
	return t, nil
}

// Table2ShapeCheck verifies the paper-vs-measured shape claims for
// Table 2 programmatically (used by tests and EXPERIMENTS.md).
func Table2ShapeCheck(groups []mech.GroupResult) error {
	if len(groups) != 4 {
		return fmt.Errorf("experiments: want 4 groups, got %d", len(groups))
	}
	splineXY, splineXZ, intactXY, intactXZ := groups[0], groups[1], groups[2], groups[3]
	if splineXY.FailureStrain.Mean > 0.6*intactXY.FailureStrain.Mean {
		return fmt.Errorf("x-y failure strain knockdown too small")
	}
	if splineXZ.FailureStrain.Mean > 0.5*intactXZ.FailureStrain.Mean {
		return fmt.Errorf("x-z failure strain knockdown too small")
	}
	if splineXY.Toughness.Mean > intactXY.Toughness.Mean/2 {
		return fmt.Errorf("x-y toughness knockdown below 2x")
	}
	if splineXZ.Toughness.Mean > intactXZ.Toughness.Mean/2 {
		return fmt.Errorf("x-z toughness knockdown below 2x")
	}
	if math.Abs(splineXZ.UTS.Mean-intactXZ.UTS.Mean)/intactXZ.UTS.Mean > 0.1 {
		return fmt.Errorf("x-z UTS should barely change")
	}
	if splineXY.UTS.Mean > 0.9*intactXY.UTS.Mean {
		return fmt.Errorf("x-y UTS should drop noticeably")
	}
	return nil
}

// Fig9Field renders the von Mises stress field of the slit gauge section
// as ASCII art — the terminal version of the paper's Fig. 9 contour plot.
func Fig9Field() (string, error) {
	sol, _, err := fea.SplitTipAnalysis(33, 6, 3.2, 2000, 0.35, 1.5, 80)
	if err != nil {
		return "", err
	}
	return sol.FieldASCII(), nil
}

// RiskMatrix exposes the quantified Table 1 risk ranking.
func RiskMatrix() *report.Table { return supplychain.RiskMatrix() }

// Fig10Sections renders cut-open mid sections of the no-removal and
// solid-removal sphere prints after support wash-out — the ASCII analogue
// of the paper's Fig. 10c/10d photographs.
func Fig10Sections() (hollow, dense string, err error) {
	prof := printer.DimensionElite()
	size := geom.V3(25.4, 12.7, 12.7)
	c := geom.V3(12.7, 6.35, 6.35)
	build := func(opts brep.EmbedOpts) (string, error) {
		p, err := brep.NewRectPrism("prism", size)
		if err != nil {
			return "", err
		}
		if err := brep.EmbedSphere(p, "prism", c, 3.175, opts); err != nil {
			return "", err
		}
		pl := supplychain.Pipeline{
			Resolution: tessellate.Fine, Orientation: mech.XY, Printer: prof,
		}
		run, err := pl.ExecuteCtx(context.Background(), p)
		if err != nil {
			return "", err
		}
		g := run.Build.Grid
		return g.SectionASCII(voxel.AxisY, g.NY/2, 100)
	}
	hollow, err = build(brep.EmbedOpts{})
	if err != nil {
		return "", "", err
	}
	dense, err = build(brep.EmbedOpts{MaterialRemoval: true})
	if err != nil {
		return "", "", err
	}
	return hollow, dense, nil
}

// Table2Extended predicts the full Table 2 across every STL resolution —
// the paper measured only Coarse; these are the model's predictions for
// the resolutions it did not print, including the genuine-key condition
// (Custom x-y) whose properties match the intact baseline.
func Table2Extended(n int, seed int64) (*report.Table, error) {
	prof := printer.DimensionElite()
	t := &report.Table{
		Title: "Table 2 extended: split-specimen tensile predictions across STL resolutions",
		Headers: []string{"Specimen", "E (GPa)", "UTS (MPa)",
			"Failure strain", "Toughness (kJ/m^3)"},
	}
	// Enumerate the jobs in the fixed serial order first, so job i keeps
	// the seed offset seed+i it has always had, then run them on the pool.
	type job struct {
		label, group string
		split        bool
		res          tessellate.Resolution
		o            mech.Orientation
	}
	var jobs []job
	for _, o := range []mech.Orientation{mech.XY, mech.XZ} {
		jobs = append(jobs, job{
			label: fmt.Sprintf("Intact %s", o), group: "intact",
			res: tessellate.Coarse, o: o,
		})
		for _, res := range tessellate.Presets() {
			jobs = append(jobs, job{
				label: fmt.Sprintf("Spline %s (%s)", o, res.Name), group: "split",
				split: true, res: res, o: o,
			})
		}
	}
	groups, err := parallel.Map(context.Background(), len(jobs), 0, func(i int) (mech.GroupResult, error) {
		j := jobs[i]
		run, err := runPipeline(j.split, j.res, j.o, prof)
		if err != nil {
			return mech.GroupResult{}, err
		}
		pl := supplychain.Pipeline{Resolution: j.res, Orientation: j.o, Printer: prof}
		return pl.TestPrinted(run, j.group, n, seed+int64(i))
	})
	if err != nil {
		return nil, err
	}
	for i, g := range groups {
		t.AddRow(jobs[i].label, g.Young.String(), g.UTS.String(),
			g.FailureStrain.String(), g.Toughness.String())
	}
	return t, nil
}
