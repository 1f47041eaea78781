package mech

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// BendSetup is a three-point flexural test fixture (ASTM D790 style).
type BendSetup struct {
	// Span is the support span L, mm.
	Span float64
	// Width and Depth are the specimen cross-section b and d, mm.
	Width, Depth float64
}

// DefaultBendSetup returns a 16:1 span-to-depth D790 fixture for the
// paper's 3.2 mm thick coupons.
func DefaultBendSetup() BendSetup {
	return BendSetup{Span: 51.2, Width: 12.7, Depth: 3.2}
}

// Validate reports whether the fixture is usable.
func (b BendSetup) Validate() error {
	if b.Span <= 0 || b.Width <= 0 || b.Depth <= 0 {
		return fmt.Errorf("mech: bend setup dimensions must be positive: %+v", b)
	}
	if b.Span < 4*b.Depth {
		return fmt.Errorf("mech: span %g too short for depth %g (shear-dominated)", b.Span, b.Depth)
	}
	return nil
}

// BendProperties are the measured outcomes of a flexural test.
type BendProperties struct {
	// FlexuralModulusGPa is the chord modulus from the initial slope.
	FlexuralModulusGPa float64
	// FlexuralStrengthMPa is the outer-fibre stress at failure
	// (including the rectangular-section plastic shape factor).
	FlexuralStrengthMPa float64
	// FailureDeflectionMM is the mid-span deflection at fracture.
	FailureDeflectionMM float64
}

// BendTest runs a three-point flexural test. The outer fibre of the
// specimen experiences the highest strain, so the split feature's
// ductility knockdown maps directly onto the failure deflection:
// eps_outer = 6 D d / L^2.
func BendTest(s Specimen, setup BendSetup, rng *rand.Rand) (BendProperties, error) {
	if err := s.Validate(); err != nil {
		return BendProperties{}, err
	}
	if err := setup.Validate(); err != nil {
		return BendProperties{}, err
	}
	noise := func(sigma float64) float64 {
		if rng == nil {
			return 1
		}
		return 1 + rng.NormFloat64()*sigma
	}
	eMeas := s.Mat.E * (1 - s.ModulusKnockdown) * noise(0.02)
	efail := s.failureStrain() * noise(0.05)
	if efail <= 0 {
		efail = 1e-4
	}
	// Plastic section shape factor for a rectangular beam.
	const shapeFactor = 1.5
	strength := shapeFactor * s.Mat.Stress(efail) * (eMeas / s.Mat.E) * noise(0.01)
	deflection := efail * setup.Span * setup.Span / (6 * setup.Depth)
	return BendProperties{
		FlexuralModulusGPa:  eMeas / 1000,
		FlexuralStrengthMPa: strength,
		FailureDeflectionMM: deflection,
	}, nil
}

func TestBendSetupValidate(t *testing.T) {
	if err := DefaultBendSetup().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultBendSetup()
	bad.Span = 5 // < 4x depth
	if err := bad.Validate(); err == nil {
		t.Error("expected error for shear-dominated span")
	}
	bad = DefaultBendSetup()
	bad.Width = 0
	if err := bad.Validate(); err == nil {
		t.Error("expected error for zero width")
	}
}

func TestBendTestIntact(t *testing.T) {
	p, err := BendTest(Specimen{Mat: ABS(XY)}, DefaultBendSetup(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Flexural modulus equals tensile modulus in this model.
	if math.Abs(p.FlexuralModulusGPa-1.98) > 0.01 {
		t.Errorf("flexural modulus = %v", p.FlexuralModulusGPa)
	}
	// Strength ~ 1.5x tensile flow stress at the failure strain.
	if p.FlexuralStrengthMPa < 40 || p.FlexuralStrengthMPa > 50 {
		t.Errorf("flexural strength = %v, want ~45 (1.5 x ~30)", p.FlexuralStrengthMPa)
	}
	// Deflection: eps*L^2/(6d) = 0.029*51.2^2/(6*3.2).
	want := 0.029 * 51.2 * 51.2 / (6 * 3.2)
	if math.Abs(p.FailureDeflectionMM-want) > 0.01*want {
		t.Errorf("deflection = %v, want %v", p.FailureDeflectionMM, want)
	}
}

func TestBendTestSplitKnockdown(t *testing.T) {
	setup := DefaultBendSetup()
	intact, err := BendTest(Specimen{Mat: ABS(XY)}, setup, nil)
	if err != nil {
		t.Fatal(err)
	}
	split, err := BendTest(Specimen{
		Mat: ABS(XY), SeamPresent: true, SeamQuality: 0.35, Kt: 2.6,
	}, setup, nil)
	if err != nil {
		t.Fatal(err)
	}
	if split.FailureDeflectionMM > 0.55*intact.FailureDeflectionMM {
		t.Errorf("split deflection %v vs intact %v: want >= 45%% loss",
			split.FailureDeflectionMM, intact.FailureDeflectionMM)
	}
	if split.FlexuralStrengthMPa >= intact.FlexuralStrengthMPa {
		t.Error("split flexural strength should drop")
	}
	if split.FlexuralModulusGPa < 0.9*intact.FlexuralModulusGPa {
		t.Error("modulus should barely change")
	}
}

func TestBendTestErrors(t *testing.T) {
	if _, err := BendTest(Specimen{}, DefaultBendSetup(), nil); err == nil {
		t.Error("expected error for invalid specimen")
	}
	if _, err := BendTest(Specimen{Mat: ABS(XY)}, BendSetup{}, nil); err == nil {
		t.Error("expected error for invalid setup")
	}
}
