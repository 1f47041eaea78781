package obfuscade_test

import (
	"bytes"
	"context"
	"testing"

	"obfuscade/internal/brep"
	"obfuscade/internal/core"
	"obfuscade/internal/gcode"
	"obfuscade/internal/mech"
	"obfuscade/internal/printer"
	"obfuscade/internal/stl"
	"obfuscade/internal/supplychain"
	"obfuscade/internal/tessellate"
)

// TestGoldenFlow walks the complete ObfusCADe lifecycle end to end:
// protect -> sign -> distribute -> authorized manufacture -> authenticate,
// then the counterfeiting paths: wrong key, stolen STL, overproduction.
func TestGoldenFlow(t *testing.T) {
	// 1. The IP owner protects the design and seals the CAD file.
	prot, err := core.NewProtectedBar("golden", true)
	if err != nil {
		t.Fatal(err)
	}
	cadBytes, err := brep.Save(prot.Part)
	if err != nil {
		t.Fatal(err)
	}
	signer, err := supplychain.NewSigner(bytes.Repeat([]byte{11}, 32))
	if err != nil {
		t.Fatal(err)
	}
	sealed := signer.Seal("golden.ocad", cadBytes)

	// 2. The contracted manufacturer receives the artifact, verifies
	//    provenance, and gets three production tickets.
	if err := sealed.Check(signer.Public()); err != nil {
		t.Fatalf("authentic artifact rejected: %v", err)
	}
	if err := core.VerifyDistribution(prot, sealed.Data); err != nil {
		t.Fatalf("distribution check: %v", err)
	}
	tickets, err := signer.IssueTickets(prot.Manifest.CADDigest, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	validator, err := supplychain.NewTicketValidator(signer.Public(), prot.Manifest.CADDigest)
	if err != nil {
		t.Fatal(err)
	}

	// 3. Authorized production: three prints under the correct key.
	prof := printer.DimensionElite()
	for i, tk := range tickets {
		if err := validator.Authorize(tk); err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
		res, err := core.ManufactureMemoCtx(context.Background(), prot, prot.Manifest.Key, prof, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Quality.Grade != core.Good {
			t.Fatalf("print %d grade = %v (%v)", i, res.Quality.Grade, res.Quality.Notes)
		}
		if rep := core.Authenticate(res.Run.Build, &prot.Manifest); rep.Verdict != core.Genuine {
			t.Fatalf("print %d verdict = %v", i, rep.Verdict)
		}
	}

	// 4. Overproduction: a fourth print has no fresh ticket.
	if err := validator.Authorize(tickets[0]); err == nil {
		t.Fatal("overproduction not blocked")
	}

	// 5. Insider counterfeiting: correct resolution/orientation but
	//    without the secret CAD operation.
	wrongOp := prot.Manifest.Key
	wrongOp.RestoreSphere = false
	fake, err := core.ManufactureMemoCtx(context.Background(), prot, wrongOp, prof, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fake.Quality.Grade == core.Good {
		t.Fatal("counterfeit without CAD op graded good")
	}
	if rep := core.Authenticate(fake.Run.Build, &prot.Manifest); rep.Verdict != core.Counterfeit {
		t.Fatalf("counterfeit verdict = %v", rep.Verdict)
	}

	// 6. Destructive sampling of the counterfeit batch also flags it.
	group, err := mech.TestGroupCtx(context.Background(), "sample", mech.Specimen{
		Mat:         mech.ABS(mech.XY),
		SeamPresent: true,
		SeamQuality: fake.Quality.SeamBondQuality * 0.5, // cavity weakens further
		Kt:          2.6,
	}, 5, 99)
	if err != nil {
		t.Fatal(err)
	}
	if v := core.DestructiveCheck(group, mech.ABS(mech.XY), 0.15); v == core.Genuine {
		t.Fatal("destructive check passed a counterfeit batch")
	}
}

// TestStolenSTLFlow: the thief exfiltrates the coarse STL export, applies
// mesh repair to "clean it up", and still cannot print a good part.
func TestStolenSTLFlow(t *testing.T) {
	prot, err := core.NewProtectedBar("victim", false)
	if err != nil {
		t.Fatal(err)
	}
	part, err := core.ClonePart(prot.Part)
	if err != nil {
		t.Fatal(err)
	}
	m, err := tessellate.Tessellate(part, tessellate.Coarse)
	if err != nil {
		t.Fatal(err)
	}
	stolen, err := stl.Marshal(m, stl.Binary, "victim")
	if err != nil {
		t.Fatal(err)
	}

	// The thief repairs the mesh (winding/hole fixes do not remove the
	// split: it is watertight geometry, not damage).
	imported, err := stl.Unmarshal(stolen)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := imported.Repair(1e-6, 8); err != nil {
		t.Fatal(err)
	}
	repaired, err := stl.Marshal(imported, stl.Binary, "victim")
	if err != nil {
		t.Fatal(err)
	}

	for _, o := range []mech.Orientation{mech.XY, mech.XZ} {
		_, q, err := core.ManufactureFromSTL(repaired, o, printer.DimensionElite())
		if err != nil {
			t.Fatalf("%v: %v", o, err)
		}
		if q.Grade == core.Good {
			t.Errorf("repaired stolen coarse STL printed good in %v", o)
		}
	}
}

// TestGCodeChainIntegrity: the G-code produced by the chain survives a
// byte round trip, reverses to equivalent toolpaths, and carries the
// expected role structure.
func TestGCodeChainIntegrity(t *testing.T) {
	part, err := brep.NewTensileBar("bar", brep.DefaultTensileBar())
	if err != nil {
		t.Fatal(err)
	}
	pl := supplychain.DefaultPipeline()
	run, err := pl.ExecuteCtx(context.Background(), part)
	if err != nil {
		t.Fatal(err)
	}
	data, err := gcode.Marshal(run.GCode)
	if err != nil {
		t.Fatal(err)
	}
	back, err := gcode.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	d, err := gcode.Compare(run.GCode, back, gcode.DimensionEliteEnvelope())
	if err != nil {
		t.Fatal(err)
	}
	if !d.Equivalent(1e-3) {
		t.Fatalf("byte round trip not equivalent: %+v", d)
	}
	roles := gcode.RoleBreakdown(back)
	if roles["perimeter"] <= 0 || roles["infill"] <= 0 {
		t.Errorf("role breakdown incomplete: %v", roles)
	}
	if roles["perimeter"] > roles["infill"] {
		t.Errorf("solid interior should extrude more infill than perimeter: %v", roles)
	}
}
