package mech

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"obfuscade/internal/parallel"
)

func TestMaterialValidate(t *testing.T) {
	for _, o := range []Orientation{XY, XZ} {
		if err := ABS(o).Validate(); err != nil {
			t.Errorf("ABS(%v): %v", o, err)
		}
		if err := VeroClear(o).Validate(); err != nil {
			t.Errorf("VeroClear(%v): %v", o, err)
		}
	}
	bad := ABS(XY)
	bad.Yield = bad.UTS + 1
	if err := bad.Validate(); err == nil {
		t.Error("expected error for yield above UTS")
	}
	bad = ABS(XY)
	bad.E = 0
	if err := bad.Validate(); err == nil {
		t.Error("expected error for zero modulus")
	}
	bad = ABS(XY)
	bad.FailureStrain = 1e-5
	if err := bad.Validate(); err == nil {
		t.Error("expected error for elastic-range failure strain")
	}
}

func TestStressCurveShape(t *testing.T) {
	m := ABS(XY)
	if got := m.Stress(-1); got != 0 {
		t.Errorf("negative strain stress = %v", got)
	}
	// Linear region.
	if got := m.Stress(0.005); !approx(got, 0.005*m.E, 1e-9) {
		t.Errorf("elastic stress = %v", got)
	}
	// Monotone non-decreasing, saturating below UTS.
	prev := 0.0
	for eps := 0.0; eps <= 0.1; eps += 0.001 {
		s := m.Stress(eps)
		if s < prev-1e-9 {
			t.Fatalf("stress not monotone at %g", eps)
		}
		if s > m.UTS+1e-9 {
			t.Fatalf("stress %g exceeds UTS %g", s, m.UTS)
		}
		prev = s
	}
}

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestIntactCalibration(t *testing.T) {
	// Noise-free intact tests must land on the paper's intact rows.
	for _, tc := range []struct {
		o       Orientation
		wantE   float64 // GPa
		wantUTS float64 // MPa
		wantEf  float64
	}{
		{XY, 1.98, 30, 0.029},
		{XZ, 2.05, 32.5, 0.077},
	} {
		p, _, err := Test(Specimen{Mat: ABS(tc.o)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p.YoungGPa-tc.wantE)/tc.wantE > 0.02 {
			t.Errorf("%v: E = %v GPa, want ~%v", tc.o, p.YoungGPa, tc.wantE)
		}
		if math.Abs(p.UTSMPa-tc.wantUTS)/tc.wantUTS > 0.03 {
			t.Errorf("%v: UTS = %v, want ~%v", tc.o, p.UTSMPa, tc.wantUTS)
		}
		if math.Abs(p.FailureStrain-tc.wantEf)/tc.wantEf > 0.01 {
			t.Errorf("%v: failure strain = %v, want %v", tc.o, p.FailureStrain, tc.wantEf)
		}
	}
}

// The Table 2 shape: a split specimen loses >= 50% failure strain and
// >= 2x toughness relative to intact, while E and UTS change much less.
func TestSplitKnockdownShape(t *testing.T) {
	// Seam qualities as the printer computes them for coarse STL prints
	// (x-y: healed micro-void seam; x-z: mostly cold seam).
	for _, tc := range []struct {
		name        string
		o           Orientation
		seamQuality float64
	}{
		{"x-y coarse", XY, 0.35},
		{"x-z coarse", XZ, 0.14},
	} {
		intact, _, err := Test(Specimen{Mat: ABS(tc.o)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		split, _, err := Test(Specimen{
			Mat: ABS(tc.o), SeamPresent: true,
			SeamQuality: tc.seamQuality, Kt: 2.6, ModulusKnockdown: 0.03,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if split.FailureStrain > 0.55*intact.FailureStrain {
			t.Errorf("%s: failure strain %v vs intact %v — want >= 50%% loss",
				tc.name, split.FailureStrain, intact.FailureStrain)
		}
		if split.ToughnessKJM3 > intact.ToughnessKJM3/2 {
			t.Errorf("%s: toughness %v vs intact %v — want >= 2x loss",
				tc.name, split.ToughnessKJM3, intact.ToughnessKJM3)
		}
		if split.YoungGPa < 0.9*intact.YoungGPa {
			t.Errorf("%s: modulus should barely change: %v vs %v",
				tc.name, split.YoungGPa, intact.YoungGPa)
		}
		if split.UTSMPa < 0.7*intact.UTSMPa {
			t.Errorf("%s: UTS knockdown too large: %v vs %v",
				tc.name, split.UTSMPa, intact.UTSMPa)
		}
	}
}

// The x-y split specimen fails on the rising part of the curve, so its
// measured UTS drops noticeably (paper: 24 vs 30 MPa); the x-z split
// specimen fails past the plateau, so UTS is barely affected (31.5 vs
// 32.5 MPa).
func TestUTSSignature(t *testing.T) {
	xy, _, err := Test(Specimen{Mat: ABS(XY), SeamPresent: true, SeamQuality: 0.35, Kt: 2.6}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if xy.UTSMPa > 28 || xy.UTSMPa < 20 {
		t.Errorf("spline x-y UTS = %v, want in [20, 28] (paper: 24)", xy.UTSMPa)
	}
	xz, _, err := Test(Specimen{Mat: ABS(XZ), SeamPresent: true, SeamQuality: 0.15, Kt: 2.6}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if xz.UTSMPa < 29 {
		t.Errorf("spline x-z UTS = %v, want >= 29 (paper: 31.5)", xz.UTSMPa)
	}
}

func TestSeamQualityMonotone(t *testing.T) {
	prev := -1.0
	for _, q := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		p, _, err := Test(Specimen{Mat: ABS(XY), SeamPresent: true, SeamQuality: q, Kt: 2.6}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if p.FailureStrain <= prev {
			t.Fatalf("failure strain not monotone in seam quality at %g", q)
		}
		prev = p.FailureStrain
	}
}

func TestPerfectSeamCapped(t *testing.T) {
	// A perfect seam with no concentrator behaves like intact material.
	p, _, err := Test(Specimen{Mat: ABS(XY), SeamPresent: true, SeamQuality: 1, Kt: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	intact, _, _ := Test(Specimen{Mat: ABS(XY)}, nil)
	if !approx(p.FailureStrain, intact.FailureStrain, 1e-9) {
		t.Errorf("perfect seam strain %v vs intact %v", p.FailureStrain, intact.FailureStrain)
	}
}

func TestSpecimenValidate(t *testing.T) {
	if err := (Specimen{Mat: ABS(XY), SeamPresent: true, SeamQuality: 2, Kt: 2}).Validate(); err == nil {
		t.Error("expected error for seam quality > 1")
	}
	if err := (Specimen{Mat: ABS(XY), SeamPresent: true, SeamQuality: 0.5, Kt: 0.5}).Validate(); err == nil {
		t.Error("expected error for Kt < 1")
	}
	if err := (Specimen{Mat: ABS(XY), ModulusKnockdown: 1.5}).Validate(); err == nil {
		t.Error("expected error for knockdown >= 1")
	}
}

func TestTestGroupStatistics(t *testing.T) {
	g, err := TestGroupCtx(context.Background(), "intact x-y", Specimen{Mat: ABS(XY)}, 5, 42)
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 5 || len(g.Samples) != 5 {
		t.Fatalf("group size = %d", g.N)
	}
	if g.Young.Std <= 0 || g.FailureStrain.Std <= 0 {
		t.Error("replicates should show spread")
	}
	if math.Abs(g.Young.Mean-1.98) > 0.1 {
		t.Errorf("group mean E = %v", g.Young.Mean)
	}
	// Determinism: same seed, same stats.
	g2, _ := TestGroupCtx(context.Background(), "intact x-y", Specimen{Mat: ABS(XY)}, 5, 42)
	if g2.Young != g.Young || g2.Toughness != g.Toughness {
		t.Error("same seed should reproduce identical statistics")
	}
	if _, err := TestGroupCtx(context.Background(), "bad", Specimen{Mat: ABS(XY)}, 0, 1); err == nil {
		t.Error("expected error for zero replicates")
	}
}

// Replicate i's noise must depend only on (seed, i): growing the group
// must not change the earlier samples, the property that makes parallel
// replicate execution schedule-independent.
func TestTestGroupScheduleIndependent(t *testing.T) {
	spec := Specimen{Mat: ABS(XY), SeamPresent: true, SeamQuality: 0.35, Kt: 2.6}
	small, err := TestGroupCtx(context.Background(), "g", spec, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	large, err := TestGroupCtx(context.Background(), "g", spec, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range small.Samples {
		if small.Samples[i] != large.Samples[i] {
			t.Errorf("sample %d changed with group size: %+v vs %+v",
				i, small.Samples[i], large.Samples[i])
		}
	}
}

// Parallel replicate execution must be field-for-field identical to the
// serial baseline (worker pool forced to 1).
func TestTestGroupParallelMatchesSerial(t *testing.T) {
	defer parallel.SetDefault(0)
	spec := Specimen{Mat: ABS(XZ), SeamPresent: true, SeamQuality: 0.14, Kt: 2.6}
	parallel.SetDefault(1)
	serial, err := TestGroupCtx(context.Background(), "g", spec, 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	parallel.SetDefault(8)
	par, err := TestGroupCtx(context.Background(), "g", spec, 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Young != par.Young || serial.UTS != par.UTS ||
		serial.FailureStrain != par.FailureStrain || serial.Toughness != par.Toughness {
		t.Errorf("group stats differ: serial %+v vs parallel %+v", serial, par)
	}
	for i := range serial.Samples {
		if serial.Samples[i] != par.Samples[i] {
			t.Errorf("sample %d differs: %+v vs %+v", i, serial.Samples[i], par.Samples[i])
		}
	}
}

func TestCurveConsistency(t *testing.T) {
	_, cur, err := Test(Specimen{Mat: ABS(XY)}, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if len(cur.Strain) != len(cur.Stress) || len(cur.Strain) == 0 {
		t.Fatal("malformed curve")
	}
	if cur.Strain[0] != 0 || cur.Stress[0] != 0 {
		t.Error("curve should start at origin")
	}
	for i := 1; i < len(cur.Strain); i++ {
		if cur.Strain[i] <= cur.Strain[i-1] {
			t.Fatal("strain not increasing")
		}
	}
}

func TestStatString(t *testing.T) {
	s := Stat{Mean: 1.891, Std: 0.042}
	if got := s.String(); got != "1.89±0.042" {
		t.Errorf("Stat.String = %q", got)
	}
}

func TestOrientationString(t *testing.T) {
	if XY.String() != "x-y" || XZ.String() != "x-z" {
		t.Error("Orientation.String misbehaves")
	}
}

func TestParseOrientation(t *testing.T) {
	for s, want := range map[string]Orientation{"x-y": XY, "xy": XY, "x-z": XZ, "xz": XZ} {
		got, err := ParseOrientation(s)
		if err != nil || got != want {
			t.Errorf("ParseOrientation(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"", "y-z", "bogus", "sideways", "XY", " x-y"} {
		if _, err := ParseOrientation(s); err == nil {
			t.Errorf("ParseOrientation(%q) accepted an unknown orientation", s)
		}
	}
}
