package core

import (
	"context"
	"testing"

	"obfuscade/internal/mech"
)

func TestDestructiveCheck(t *testing.T) {
	ref := mech.ABS(mech.XY)

	genuine, err := mech.TestGroupCtx(context.Background(), "genuine", mech.Specimen{Mat: ref}, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v := DestructiveCheck(genuine, ref, 0.15); v != Genuine {
		t.Errorf("intact-quality batch verdict = %v", v)
	}

	fake, err := mech.TestGroupCtx(context.Background(), "fake", mech.Specimen{
		Mat: ref, SeamPresent: true, SeamQuality: 0.35, Kt: 2.6,
	}, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v := DestructiveCheck(fake, ref, 0.15); v != Counterfeit {
		t.Errorf("counterfeit batch verdict = %v (strain %v vs ref %v)",
			v, fake.FailureStrain.Mean, ref.FailureStrain)
	}

	// Borderline: mildly degraded seam lands in Suspect territory.
	borderline, err := mech.TestGroupCtx(context.Background(), "mild", mech.Specimen{
		Mat: ref, SeamPresent: true, SeamQuality: 0.85, Kt: 1.8,
	}, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	ratio := borderline.FailureStrain.Mean / ref.FailureStrain
	v := DestructiveCheck(borderline, ref, 0.15)
	switch {
	case ratio >= 0.85 && v != Genuine:
		t.Errorf("ratio %v should be genuine, got %v", ratio, v)
	case ratio < 0.70 && v != Counterfeit:
		t.Errorf("ratio %v should be counterfeit, got %v", ratio, v)
	}

	// Degenerate reference.
	if v := DestructiveCheck(genuine, mech.Material{}, 0.15); v != Suspect {
		t.Errorf("degenerate reference verdict = %v", v)
	}
}
