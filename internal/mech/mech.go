// Package mech simulates the destructive testing stage of the AM process
// chain: uniaxial tensile tests on printed specimens, producing the
// Young's modulus, ultimate tensile strength, failure strain and
// toughness reported in the paper's Table 2.
//
// Modelling approach (documented in DESIGN.md §2): the *intact* rows of
// Table 2 calibrate the orientation-dependent base material model (FDM
// parts are strongly anisotropic); the *split* rows are then predicted
// from printed seam physics: the seam's bond quality (package printer)
// and the stress concentration at the split tip (package fea) reduce the
// strain at which fracture initiates (paper Fig. 9). Stress follows a
// saturating elastoplastic law, so specimens failing early also exhibit
// reduced measured UTS — exactly the paper's Spline x-y signature.
package mech

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"obfuscade/internal/obs"
	"obfuscade/internal/parallel"
	"obfuscade/internal/trace"
)

// Destructive-testing metrics: group latency plus a deterministic
// replicate total (counted once per successful group).
var (
	stTestGroup = trace.NewStage("stage", "mech.testgroup")
	mReplicates = obs.Default().Counter("mech.replicates")
)

// Orientation is the print orientation of a specimen (paper Fig. 6).
type Orientation int

const (
	// XY is the flat orientation: the specimen lies on the build plate.
	XY Orientation = iota
	// XZ is the on-edge orientation: the width stands vertical.
	XZ
)

// String implements fmt.Stringer.
func (o Orientation) String() string {
	if o == XZ {
		return "x-z"
	}
	return "x-y"
}

// ParseOrientation parses a print orientation: "x-y" or "xy" is XY and
// "x-z" or "xz" is XZ. Any other string is an error rather than a silent
// default, so a typo can never manufacture or authenticate under the
// wrong orientation.
func ParseOrientation(s string) (Orientation, error) {
	switch s {
	case "x-y", "xy":
		return XY, nil
	case "x-z", "xz":
		return XZ, nil
	}
	return XY, fmt.Errorf("mech: unknown orientation %q (want x-y, xy, x-z or xz)", s)
}

// Material is an elastoplastic material law with saturating hardening:
//
//	sigma(eps) = E*eps                                  for eps <= yield/E
//	             Y + (UTS-Y)*(1 - exp(-(eps-epsY)/tau)) beyond
//
// Values are in MPa and mm/mm.
type Material struct {
	Name string
	// E is Young's modulus in MPa.
	E float64
	// Yield is the proportional limit in MPa.
	Yield float64
	// UTS is the saturated flow stress in MPa.
	UTS float64
	// Tau is the hardening strain constant.
	Tau float64
	// FailureStrain is the intrinsic ductility of a defect-free print in
	// this orientation.
	FailureStrain float64
}

// ABS returns the FDM ABS material law for the given print orientation,
// calibrated against the intact rows of the paper's Table 2
// (E 1.98/2.05 GPa, UTS 30/32.5 MPa, failure strain 0.029/0.077 for
// x-y/x-z respectively).
func ABS(o Orientation) Material {
	if o == XZ {
		return Material{
			Name: "ABS", E: 2050, Yield: 21, UTS: 32.6, Tau: 0.005,
			FailureStrain: 0.077,
		}
	}
	return Material{
		Name: "ABS", E: 1980, Yield: 20, UTS: 30.1, Tau: 0.005,
		FailureStrain: 0.029,
	}
}

// VeroClear returns the PolyJet VeroClear photopolymer law (datasheet
// values; PolyJet parts are nearly isotropic, so orientations differ only
// mildly).
func VeroClear(o Orientation) Material {
	m := Material{
		Name: "VeroClear", E: 2700, Yield: 35, UTS: 58, Tau: 0.006,
		FailureStrain: 0.025,
	}
	if o == XZ {
		m.FailureStrain = 0.035
		m.UTS = 60
	}
	return m
}

// Validate reports whether the law is physically sensible.
func (m Material) Validate() error {
	switch {
	case m.E <= 0 || m.Yield <= 0 || m.UTS <= 0 || m.Tau <= 0:
		return fmt.Errorf("mech: material %q parameters must be positive", m.Name)
	case m.Yield >= m.UTS:
		return fmt.Errorf("mech: material %q yield %g must be below UTS %g", m.Name, m.Yield, m.UTS)
	case m.FailureStrain <= m.Yield/m.E:
		return fmt.Errorf("mech: material %q failure strain %g within elastic range", m.Name, m.FailureStrain)
	}
	return nil
}

// Stress evaluates the stress at a given strain (no damage).
func (m Material) Stress(eps float64) float64 {
	if eps <= 0 {
		return 0
	}
	epsY := m.Yield / m.E
	if eps <= epsY {
		return m.E * eps
	}
	return m.Yield + (m.UTS-m.Yield)*(1-math.Exp(-(eps-epsY)/m.Tau))
}

// Specimen describes one printed tensile specimen with its defect state.
type Specimen struct {
	// Mat is the calibrated base material for the print orientation.
	Mat Material
	// SeamPresent marks a specimen containing a split-feature seam.
	SeamPresent bool
	// SeamQuality is the effective bond quality across the seam in
	// [0, 1] (printer.SeamRecord.BondQuality). Ignored when
	// SeamPresent is false.
	SeamQuality float64
	// Kt is the stress concentration factor at the seam tip (package
	// fea); 1 when no concentrator exists.
	Kt float64
	// ModulusKnockdown is the fractional stiffness loss from seam
	// compliance and micro-voids (small, e.g. 0.02-0.05).
	ModulusKnockdown float64
}

// Validate reports whether the specimen is usable.
func (s Specimen) Validate() error {
	if err := s.Mat.Validate(); err != nil {
		return err
	}
	if s.SeamPresent {
		if s.SeamQuality < 0 || s.SeamQuality > 1 {
			return fmt.Errorf("mech: seam quality %g out of [0,1]", s.SeamQuality)
		}
		if s.Kt < 1 {
			return fmt.Errorf("mech: Kt %g must be >= 1", s.Kt)
		}
	}
	if s.ModulusKnockdown < 0 || s.ModulusKnockdown >= 1 {
		return fmt.Errorf("mech: modulus knockdown %g out of [0,1)", s.ModulusKnockdown)
	}
	return nil
}

// failureStrain returns the nominal strain at which fracture initiates:
// intrinsic ductility, reduced by the seam. The seam's cohesive energy
// scales with bond quality q; the local strain at the tip is amplified by
// an *effective* concentration factor that itself fades as the seam heals
// (a fully bonded seam concentrates nothing):
//
//	Kt_eff = 1 + (Kt - 1)(1 - q)
//	g      = sqrt(q / Kt_eff)           (energy-based initiation)
//	eps_f  = eps_intrinsic * min(1, g)
func (s Specimen) failureStrain() float64 {
	ef := s.Mat.FailureStrain
	if !s.SeamPresent {
		return ef
	}
	kt := s.Kt
	if kt < 1 {
		kt = 1
	}
	ktEff := 1 + (kt-1)*(1-s.SeamQuality)
	g := math.Sqrt(s.SeamQuality / ktEff)
	if g > 1 {
		g = 1
	}
	return ef * g
}

// Properties are the measured outcomes of one tensile test, in the units
// of the paper's Table 2.
type Properties struct {
	// YoungGPa is the measured Young's modulus in GPa.
	YoungGPa float64
	// UTSMPa is the measured peak stress in MPa.
	UTSMPa float64
	// FailureStrain is the strain at fracture, mm/mm.
	FailureStrain float64
	// ToughnessKJM3 is the absorbed energy density in kJ/m^3.
	ToughnessKJM3 float64
}

// Curve is a sampled stress-strain record.
type Curve struct {
	Strain []float64
	Stress []float64
}

// Test runs one tensile test with multiplicative process noise drawn from
// rng (pass nil for a deterministic noise-free test).
func Test(s Specimen, rng *rand.Rand) (Properties, Curve, error) {
	if err := s.Validate(); err != nil {
		return Properties{}, Curve{}, err
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
	scale := eMeas / s.Mat.E

	const steps = 400
	cur := Curve{
		Strain: make([]float64, steps+1),
		Stress: make([]float64, steps+1),
	}
	var peak, tough float64
	for i := 0; i <= steps; i++ {
		eps := efail * float64(i) / steps
		sig := s.Mat.Stress(eps) * scale
		cur.Strain[i] = eps
		cur.Stress[i] = sig
		if sig > peak {
			peak = sig
		}
		if i > 0 {
			tough += (cur.Stress[i] + cur.Stress[i-1]) / 2 * (cur.Strain[i] - cur.Strain[i-1])
		}
	}
	props := Properties{
		YoungGPa:      eMeas / 1000,
		UTSMPa:        peak * noise(0.01),
		FailureStrain: efail,
		ToughnessKJM3: tough * 1000,
	}
	return props, cur, nil
}

// FatigueLife estimates the cycles to failure under a cyclic strain
// amplitude using a Coffin-Manson strain-life law,
//
//	eps_a = eps_f_eff * (2N)^(-b),  b = 0.6 (typical for thermoplastics)
//
// where eps_f_eff is the specimen's (seam-reduced) fracture ductility.
// This quantifies the paper's "inferior service life" claim: the split
// feature's ductility knockdown compounds under cyclic loading.
func FatigueLife(s Specimen, strainAmplitude float64) (float64, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	if strainAmplitude <= 0 {
		return 0, fmt.Errorf("mech: strain amplitude must be positive, got %g", strainAmplitude)
	}
	const b = 0.6
	ef := s.failureStrain()
	if strainAmplitude >= ef {
		return 0.5, nil // fails on the first excursion
	}
	return 0.5 * math.Pow(ef/strainAmplitude, 1/b), nil
}

// Stat is a mean with standard deviation.
type Stat struct {
	Mean, Std float64
}

// String formats the stat like the paper's Table 2 cells.
func (s Stat) String() string { return fmt.Sprintf("%.3g±%.2g", s.Mean, s.Std) }

// GroupResult aggregates replicate tests of one specimen group.
type GroupResult struct {
	Name                                 string
	N                                    int
	Young, UTS, FailureStrain, Toughness Stat
	Samples                              []Properties
}

// TestGroupCtx runs n replicate tensile tests with process noise seeded
// by seed and returns group statistics — one row of the paper's Table 2.
// Replicate i draws its noise from an independent RNG stream seeded by
// splitmix(seed, i), so sample i depends only on (seed, i) — never on the
// group size, execution order, or which worker ran it — and replicates
// run on the shared worker pool with output identical to a serial run.
// The stage span parents to the span carried by ctx and a batch instant
// records the deterministic replicate count.
func TestGroupCtx(ctx context.Context, name string, s Specimen, n int, seed int64) (res GroupResult, err error) {
	ctx, sp := stTestGroup.Start(ctx, trace.A("group", name))
	defer func() {
		sp.EndErr(err)
		if err == nil {
			mReplicates.Add(int64(n))
		}
	}()
	if n < 1 {
		return GroupResult{}, fmt.Errorf("mech: need at least 1 replicate")
	}
	if err := s.Validate(); err != nil {
		return GroupResult{}, err
	}
	trace.Instant(ctx, "batch", "mech.replicates", trace.A("count", fmt.Sprint(n)))
	g := GroupResult{Name: name, N: n, Samples: make([]Properties, n)}
	err = parallel.ForEachCtx(ctx, n, 0, func(_ context.Context, i int) error {
		rng := rand.New(rand.NewSource(parallel.SplitMix(seed, i)))
		p, _, err := Test(s, rng)
		if err != nil {
			return err
		}
		g.Samples[i] = p
		return nil
	})
	if err != nil {
		return GroupResult{}, err
	}
	g.Young = statOf(g.Samples, func(p Properties) float64 { return p.YoungGPa })
	g.UTS = statOf(g.Samples, func(p Properties) float64 { return p.UTSMPa })
	g.FailureStrain = statOf(g.Samples, func(p Properties) float64 { return p.FailureStrain })
	g.Toughness = statOf(g.Samples, func(p Properties) float64 { return p.ToughnessKJM3 })
	return g, nil
}

func statOf(ps []Properties, f func(Properties) float64) Stat {
	var sum float64
	for _, p := range ps {
		sum += f(p)
	}
	mean := sum / float64(len(ps))
	var ss float64
	for _, p := range ps {
		d := f(p) - mean
		ss += d * d
	}
	std := 0.0
	if len(ps) > 1 {
		std = math.Sqrt(ss / float64(len(ps)-1))
	}
	return Stat{Mean: mean, Std: std}
}
