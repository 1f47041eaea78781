package core

import (
	"context"
	"fmt"

	"obfuscade/internal/brep"
	"obfuscade/internal/mech"
	"obfuscade/internal/printer"
	"obfuscade/internal/stl"
	"obfuscade/internal/supplychain"
	"obfuscade/internal/tessellate"
)

// SplitAdvice evaluates one candidate split-feature parameterisation on
// the axes the paper's §3.1 discussion calls out: the feature must stay
// invisible under the correct key ("without compromising the quality of
// the genuine product"), sabotage strongly under wrong keys, and be hard
// to spot in the distributed files ("minimal chance of detection").
type SplitAdvice struct {
	// Amplitude is the candidate wave amplitude, mm.
	Amplitude float64
	// ArcRatio is the spline arc length over the gauge width (the paper
	// quotes 3.5x for its specimen).
	ArcRatio float64
	// GenuineGrade is the artifact grade under the correct key.
	GenuineGrade Grade
	// GenuineBond is the seam bond quality under the correct key.
	GenuineBond float64
	// WrongKeyGrade is the grade under the worst wrong key (coarse x-z).
	WrongKeyGrade Grade
	// SabotageBond is the seam bond under the worst wrong key.
	SabotageBond float64
	// STLOverhead is the triangle-count overhead of the protected model
	// versus the intact model at Fine resolution — what an attacker
	// inspecting file sizes could notice.
	STLOverhead float64
}

// Usable reports whether the candidate satisfies the paper's constraints:
// genuine prints Good, wrong-key prints Defective.
func (a SplitAdvice) Usable() bool {
	return a.GenuineGrade == Good && a.WrongKeyGrade == Defective
}

// AdviseSplit evaluates candidate amplitudes for the spline split feature
// on the given bar dimensions and returns the per-candidate evidence plus
// the index of the recommended choice (the usable candidate with the
// weakest sabotage bond, i.e. the strongest wrong-key degradation), or -1
// when none qualifies.
func AdviseSplit(dims brep.TensileBarDims, amplitudes []float64, prof printer.Profile) ([]SplitAdvice, int, error) {
	if len(amplitudes) == 0 {
		return nil, -1, fmt.Errorf("core: no candidate amplitudes")
	}
	intactTris, err := intactTriangles(dims)
	if err != nil {
		return nil, -1, err
	}
	var out []SplitAdvice
	best := -1
	for _, amp := range amplitudes {
		adv, err := evaluateSplit(dims, amp, prof, intactTris)
		if err != nil {
			return nil, -1, fmt.Errorf("core: amplitude %g: %w", amp, err)
		}
		out = append(out, adv)
		if adv.Usable() && (best < 0 || adv.SabotageBond < out[best].SabotageBond) {
			best = len(out) - 1
		}
	}
	return out, best, nil
}

func intactTriangles(dims brep.TensileBarDims) (int, error) {
	part, err := brep.NewTensileBar("bar", dims)
	if err != nil {
		return 0, err
	}
	m, err := tessellate.Tessellate(part, tessellate.Fine)
	if err != nil {
		return 0, err
	}
	return m.TriangleCount(), nil
}

func evaluateSplit(dims brep.TensileBarDims, amp float64, prof printer.Profile, intactTris int) (SplitAdvice, error) {
	adv := SplitAdvice{Amplitude: amp}
	part, err := brep.NewTensileBar("bar", dims)
	if err != nil {
		return adv, err
	}
	s, err := brep.SplitSplineThroughGauge(dims, amp, 3)
	if err != nil {
		return adv, err
	}
	adv.ArcRatio = s.ArcLength() / dims.GaugeWidth
	if err := brep.SplitBySpline(part, "bar", s); err != nil {
		return adv, err
	}
	cad, err := brep.Save(part)
	if err != nil {
		return adv, err
	}
	prot := &Protected{
		Part: part,
		Manifest: Manifest{
			PartName:  part.Name,
			Features:  []FeatureRecord{{Kind: FeatureSplineSplit}},
			Key:       Key{Resolution: tessellate.Custom, Orientation: mech.XY},
			CADDigest: supplychain.Digest(cad),
		},
	}

	genuine, err := ManufactureMemoCtx(context.Background(), prot, prot.Manifest.Key, prof, nil)
	if err != nil {
		return adv, err
	}
	adv.GenuineGrade = genuine.Quality.Grade
	adv.GenuineBond = genuine.Quality.SeamBondQuality

	wrong, err := ManufactureMemoCtx(context.Background(), prot,
		Key{Resolution: tessellate.Coarse, Orientation: mech.XZ}, prof, nil)
	if err != nil {
		return adv, err
	}
	adv.WrongKeyGrade = wrong.Quality.Grade
	adv.SabotageBond = wrong.Quality.SeamBondQuality

	m, err := tessellate.Tessellate(part, tessellate.Fine)
	if err != nil {
		return adv, err
	}
	if intactTris > 0 {
		adv.STLOverhead = float64(stl.BinarySize(m.TriangleCount())-stl.BinarySize(intactTris)) /
			float64(stl.BinarySize(intactTris))
	}
	return adv, nil
}
