package obfuscade_test

import (
	"context"
	"testing"

	"obfuscade/internal/brep"
	"obfuscade/internal/cache"
	"obfuscade/internal/cache/diskstore"
	"obfuscade/internal/core"
	"obfuscade/internal/experiments"
	"obfuscade/internal/fea"
	"obfuscade/internal/mech"
	"obfuscade/internal/obs"
	"obfuscade/internal/printer"
	"obfuscade/internal/serve"
	"obfuscade/internal/slicer"
	"obfuscade/internal/stl"
	"obfuscade/internal/supplychain"
	"obfuscade/internal/tessellate"
)

// Macro benchmarks: one per table and figure of the paper's evaluation.
// Each regenerates the artifact end to end; the per-experiment index in
// DESIGN.md §5 maps benchmarks to modules.

func BenchmarkTable1RiskRegistry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2TensileProperties(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, groups, err := experiments.Table2(5, 1)
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.Table2ShapeCheck(groups); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(groups[0].FailureStrain.Mean, "splineXY-strain")
		b.ReportMetric(groups[3].FailureStrain.Mean, "intactXZ-strain")
	}
}

func BenchmarkTable3EmbeddedSphere(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Table3()
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) != 4 {
			b.Fatal("table 3 incomplete")
		}
	}
}

func BenchmarkFig1ProcessChain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2AttackTaxonomy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.Fig2(); len(out) == 0 {
			b.Fatal("empty taxonomy")
		}
	}
}

func BenchmarkFig3ArtifactStages(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4TessellationGaps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, _, err := experiments.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(series.Y[0], "coarse-gap-mm")
		b.ReportMetric(series.Y[2], "custom-gap-mm")
	}
}

func BenchmarkFig5STLResolution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6Orientations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7XZDiscontinuity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8XYSurface(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9StressConcentration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10SphereArtifacts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig10(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSideChannelReconstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SideChannelLeakage(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKeySpaceAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, rep, err := experiments.KeySpace()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.GoodKeys), "good-keys")
	}
}

func BenchmarkServiceLife(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ServiceLife(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSTLTheft(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.STLTheft(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationMultiSplit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationMultiSplit(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPolyJetReplication(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.PolyJetReplication(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationHealing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationHealing(); err != nil {
			b.Fatal(err)
		}
	}
}

// Micro benchmarks: the substrate hot paths.

func splitBar(b *testing.B) *brep.Part {
	b.Helper()
	p, err := brep.NewTensileBar("bar", brep.DefaultTensileBar())
	if err != nil {
		b.Fatal(err)
	}
	s, err := brep.SplitSplineThroughGauge(brep.DefaultTensileBar(), 2, 3)
	if err != nil {
		b.Fatal(err)
	}
	if err := brep.SplitBySpline(p, "bar", s); err != nil {
		b.Fatal(err)
	}
	return p
}

func BenchmarkTessellateSplitBarFine(b *testing.B) {
	part := splitBar(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tessellate.Tessellate(part, tessellate.Fine); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSTLEncodeDecode(b *testing.B) {
	part := splitBar(b)
	m, err := tessellate.Tessellate(part, tessellate.Fine)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := stl.Marshal(m, stl.Binary, "bar")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := stl.Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSliceSplitBarXY(b *testing.B) {
	part := splitBar(b)
	m, err := tessellate.Tessellate(part, tessellate.Fine)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := slicer.SliceIndexedCtx(context.Background(), m, slicer.DefaultOptions(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVirtualPrintSplitBar(b *testing.B) {
	part := splitBar(b)
	m, err := tessellate.Tessellate(part, tessellate.Coarse)
	if err != nil {
		b.Fatal(err)
	}
	sliced, err := slicer.SliceIndexedCtx(context.Background(), m, slicer.DefaultOptions(), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := printer.PrintCtx(context.Background(), sliced, printer.DimensionElite(), printer.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFEASplitTip(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := fea.SplitTipAnalysis(33, 6, 3.2, 2000, 0.35, 1.5, 60); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTensileTestGroup(b *testing.B) {
	spec := mech.Specimen{Mat: mech.ABS(mech.XY), SeamPresent: true, SeamQuality: 0.35, Kt: 2.6}
	for i := 0; i < b.N; i++ {
		if _, err := mech.TestGroupCtx(context.Background(), "bench", spec, 5, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFullPipelineCoarseXY(b *testing.B) {
	part := splitBar(b)
	pl := supplychain.DefaultPipeline()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pl.ExecuteCtx(context.Background(), part); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProtectAndManufacture(b *testing.B) {
	for i := 0; i < b.N; i++ {
		prot, err := core.NewProtectedBar("bar", false)
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.ManufactureMemoCtx(context.Background(), prot, prot.Manifest.Key, printer.DimensionElite(), nil)
		if err != nil {
			b.Fatal(err)
		}
		if res.Quality.Grade != core.Good {
			b.Fatalf("correct key grade = %v", res.Quality.Grade)
		}
	}
}

func BenchmarkNDTInspection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NDT(); err != nil {
			b.Fatal(err)
		}
	}
}

// Serial-vs-parallel wall time for the full quality matrix. Run both with
//
//	go test -bench 'BenchmarkQualityMatrix' -run '^$' .
//
// and compare ns/op; on a 1-worker pool the parallel variant must also be
// entry-for-entry identical (asserted in internal/core's determinism test).

func benchQualityMatrix(b *testing.B, workers int) {
	prot, err := core.NewProtectedBar("bar", false)
	if err != nil {
		b.Fatal(err)
	}
	prof := printer.DimensionElite()
	layers0 := obs.Default().Counter("slicer.layers.sliced").Value()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		entries, err := core.QualityMatrixWorkers(prot, prof, workers)
		if err != nil {
			b.Fatal(err)
		}
		if len(entries) != 6 {
			b.Fatalf("matrix entries = %d", len(entries))
		}
	}
	b.StopTimer()
	// Throughput from the obs counters: the layer delta over the timed
	// region divided by the measured wall time (the same counter feeds
	// the benchmark harness's slicer.layers_per_s).
	layers := obs.Default().Counter("slicer.layers.sliced").Value() - layers0
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(layers)/sec, "layers/s")
	}
}

func BenchmarkQualityMatrixSerial(b *testing.B)   { benchQualityMatrix(b, 1) }
func BenchmarkQualityMatrixParallel(b *testing.B) { benchQualityMatrix(b, 0) }

// Cold-vs-cached job service. Cold gives every iteration a fresh seed so
// each request misses and runs the full pipeline; Cached replays one
// request against a warm cache. Compare ns/op:
//
//	go test -bench 'BenchmarkJobService' -run '^$' .
//
// The cached path must be orders of magnitude faster (it copies nothing
// and computes one SHA-256 over the canonical request).

func BenchmarkJobServiceCold(b *testing.B) {
	svc := serve.NewService(0, printer.DimensionElite())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := svc.Do(context.Background(), serve.Request{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if res.Outcome != cache.Miss {
			b.Fatalf("iteration %d outcome = %s, want miss", i, res.Outcome)
		}
	}
}

func BenchmarkJobServiceCached(b *testing.B) {
	svc := serve.NewService(0, printer.DimensionElite())
	req := serve.Request{Seed: 1}
	warm, err := svc.Do(context.Background(), req)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := svc.Do(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		if res.Outcome != cache.Hit || res.STLSHA256 != warm.STLSHA256 {
			b.Fatalf("iteration %d: outcome %s digest %s", i, res.Outcome, res.STLSHA256)
		}
	}
}

// Disk-tier replay: a 1-byte memory budget keeps the value out of the
// LRU, so every iteration misses memory and restores the artifact from
// the content-addressed disk store — the restart-warm path. Compare
// against Cold (full pipeline) and Cached (memory hit):
//
//	go test -bench 'BenchmarkJobService' -run '^$' .
func BenchmarkJobServiceDiskHit(b *testing.B) {
	store, err := diskstore.Open(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	svc := serve.NewTieredService(1, printer.DimensionElite(), store)
	req := serve.Request{Seed: 1}
	warm, err := svc.Do(context.Background(), req)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := svc.Do(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		if res.Outcome != cache.DiskHit || res.STLSHA256 != warm.STLSHA256 {
			b.Fatalf("iteration %d: outcome %s digest %s", i, res.Outcome, res.STLSHA256)
		}
	}
}
