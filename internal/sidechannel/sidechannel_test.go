package sidechannel

import (
	"context"
	"math"
	"testing"

	"obfuscade/internal/geom"
	"obfuscade/internal/mesh"
	"obfuscade/internal/slicer"
)

func boxPaths(t *testing.T) []*slicer.LayerToolpath {
	t.Helper()
	m := &mesh.Mesh{Shells: []mesh.Shell{
		mesh.BoxShell("box", "box", geom.V3(5, 5, 0), geom.V3(25, 15, 0.5)),
	}}
	res, err := slicer.SliceIndexedCtx(context.Background(), m, slicer.DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := res.Toolpaths()
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultOptions()
	bad.Feed = 0
	if err := bad.Validate(); err == nil {
		t.Error("expected error for zero feed")
	}
	bad = DefaultOptions()
	bad.DirFlipProb = 2
	if err := bad.Validate(); err == nil {
		t.Error("expected error for probability > 1")
	}
}

func TestNoiselessReconstructionExact(t *testing.T) {
	paths := boxPaths(t)
	opts := DefaultOptions()
	opts.FreqNoiseStd = 0
	opts.DirFlipProb = 0
	tr, err := Emanate(paths, opts)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Reconstruct(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	truth := GroundTruth(paths)
	meanErr, err := MeanError(rec, truth)
	if err != nil {
		t.Fatal(err)
	}
	if meanErr > 1e-9 {
		t.Errorf("noiseless reconstruction error = %v, want ~0", meanErr)
	}
}

// The headline result of refs [4]/[16]: a close-proximity recording
// reconstructs the design with small error — a real IP-theft channel.
func TestNoisyReconstructionSmallError(t *testing.T) {
	paths := boxPaths(t)
	opts := DefaultOptions()
	tr, err := Emanate(paths, opts)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Reconstruct(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	truth := GroundTruth(paths)
	meanErr, err := MeanError(rec, truth)
	if err != nil {
		t.Fatal(err)
	}
	// The part is 20x10 mm; reconstruction within ~1.5 mm leaks the
	// design.
	if meanErr > 1.6 {
		t.Errorf("reconstruction error = %v mm, want < 1.6", meanErr)
	}
	if rec.ExtrudedLength <= 0 {
		t.Error("extruded length should be recovered")
	}
	// Recovered bounding box close to the true design size.
	lo, hi := bboxOf(rec.Points)
	size := hi.Sub(lo)
	if math.Abs(size.X-21) > 3 || math.Abs(size.Y-11) > 3 {
		t.Errorf("recovered size %v, want ~ (21, 11)", size)
	}
}

func bboxOf(pts []geom.Vec2) (lo, hi geom.Vec2) {
	lo = geom.V2(math.Inf(1), math.Inf(1))
	hi = geom.V2(math.Inf(-1), math.Inf(-1))
	for _, p := range pts {
		lo.X = math.Min(lo.X, p.X)
		lo.Y = math.Min(lo.Y, p.Y)
		hi.X = math.Max(hi.X, p.X)
		hi.Y = math.Max(hi.Y, p.Y)
	}
	return lo, hi
}

// More measurement noise means worse reconstruction — the paper's
// mitigation story (shielding, distance, masking noise emission).
func TestErrorGrowsWithNoise(t *testing.T) {
	paths := boxPaths(t)
	var prev float64 = -1
	for _, noise := range []float64{0, 0.05, 0.25} {
		opts := DefaultOptions()
		opts.FreqNoiseStd = noise
		opts.DirFlipProb = 0
		tr, err := Emanate(paths, opts)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := Reconstruct(tr, opts)
		if err != nil {
			t.Fatal(err)
		}
		truth := GroundTruth(paths)
		meanErr, err := MeanError(rec, truth)
		if err != nil {
			t.Fatal(err)
		}
		if meanErr < prev {
			t.Errorf("error should grow with noise: %v after %v", meanErr, prev)
		}
		prev = meanErr
	}
}

func TestEmanateEmpty(t *testing.T) {
	if _, err := Emanate(nil, DefaultOptions()); err == nil {
		t.Error("expected error for empty toolpaths")
	}
}

func TestReconstructEmpty(t *testing.T) {
	if _, err := Reconstruct(&Trace{}, DefaultOptions()); err == nil {
		t.Error("expected error for empty trace")
	}
}

func TestMeanErrorLengthMismatch(t *testing.T) {
	rec := &Reconstruction{Points: []geom.Vec2{{}}}
	if _, err := MeanError(rec, nil); err == nil {
		t.Error("expected error for length mismatch")
	}
}
