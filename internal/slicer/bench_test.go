package slicer

import (
	"context"
	"testing"

	"obfuscade/internal/brep"
	"obfuscade/internal/geom"
	"obfuscade/internal/mesh"
	"obfuscade/internal/parallel"
	"obfuscade/internal/tessellate"
)

// Kernel benchmarks: indexed vs naive on the paper's split tensile bar,
// in both print orientations. The interface probe dominates x-z, where
// every layer cuts the spline seam. Both run on a 1-worker pool so the
// comparison isolates the kernels from the fan-out; layers/s is the
// kernel-level view of the benchmark harness's slicer.layers_per_s.
//
//	go test ./internal/slicer -bench 'BenchmarkSliceKernel' -run '^$' -benchmem

func benchSplitBar(b *testing.B, res tessellate.Resolution) *mesh.Mesh {
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
	m, err := tessellate.Tessellate(p, res)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// benchSliceKernel slices the fine split bar, stood on its edge when xz,
// with the indexed kernel or the naive reference.
func benchSliceKernel(b *testing.B, xz, naive bool) {
	m := benchSplitBar(b, tessellate.Fine)
	if xz {
		orientXZ(m)
	}
	parallel.SetDefault(1)
	defer parallel.SetDefault(0)
	opts := DefaultOptions()
	var layers int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var res *Result
		var err error
		if naive {
			res, err = sliceNaive(m, opts)
		} else {
			res, err = SliceIndexedCtx(context.Background(), m, opts, nil)
		}
		if err != nil {
			b.Fatal(err)
		}
		layers = len(res.Layers)
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(layers*b.N)/sec, "layers/s")
	}
}

func BenchmarkSliceKernelIndexed(b *testing.B)   { benchSliceKernel(b, false, false) }
func BenchmarkSliceKernelNaive(b *testing.B)     { benchSliceKernel(b, false, true) }
func BenchmarkSliceKernelIndexedXZ(b *testing.B) { benchSliceKernel(b, true, false) }
func BenchmarkSliceKernelNaiveXZ(b *testing.B)   { benchSliceKernel(b, true, true) }

// Rasterizer benchmarks on a mid-gauge layer of the split bar; allocs/op
// is the headline number (the bucketed version reuses pooled scratch).
//
//	go test ./internal/slicer -bench 'BenchmarkRasterize' -run '^$' -benchmem

func benchRasterLayer(b *testing.B) (*Layer, geom.Vec2, geom.Vec2, []string) {
	b.Helper()
	m := benchSplitBar(b, tessellate.Fine)
	res, err := SliceIndexedCtx(context.Background(), m, DefaultOptions(), nil)
	if err != nil {
		b.Fatal(err)
	}
	l := &res.Layers[len(res.Layers)/2]
	bd := res.Bounds
	return l, geom.V2(bd.Min.X-1, bd.Min.Y-1), geom.V2(bd.Max.X+1, bd.Max.Y+1), res.BodyNames
}

func BenchmarkRasterize(b *testing.B) {
	l, min, max, bodies := benchRasterLayer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Rasterize(min, max, 0.25, bodies); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRasterizeNaive(b *testing.B) {
	l, min, max, bodies := benchRasterLayer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rasterizeNaive(l, min, max, 0.25, bodies); err != nil {
			b.Fatal(err)
		}
	}
}
