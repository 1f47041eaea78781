package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"obfuscade/internal/brep"
	"obfuscade/internal/mech"
	"obfuscade/internal/parallel"
	"obfuscade/internal/printer"
	"obfuscade/internal/supplychain"
	"obfuscade/internal/tessellate"
)

func TestNewProtectedBar(t *testing.T) {
	prot, err := NewProtectedBar("bar", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(prot.Part.Bodies) != 2 {
		t.Fatalf("bodies = %d, want 2 (split)", len(prot.Part.Bodies))
	}
	if len(prot.Manifest.Features) != 1 || prot.Manifest.Features[0].Kind != FeatureSplineSplit {
		t.Errorf("manifest features = %+v", prot.Manifest.Features)
	}
	if prot.Manifest.CADDigest == "" {
		t.Error("manifest should fingerprint the CAD file")
	}
}

func TestNewProtectedBarWithSphere(t *testing.T) {
	prot, err := NewProtectedBar("bar", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(prot.Part.Bodies) != 3 {
		t.Fatalf("bodies = %d, want 3", len(prot.Part.Bodies))
	}
	if len(prot.Manifest.Features) != 2 {
		t.Fatalf("features = %d, want 2", len(prot.Manifest.Features))
	}
	if !prot.Manifest.Key.RestoreSphere {
		t.Error("correct key should include the restore-sphere CAD op")
	}
}

func TestVerifyDistribution(t *testing.T) {
	prot, err := NewProtectedBar("bar", false)
	if err != nil {
		t.Fatal(err)
	}
	cad, err := brep.Save(prot.Part)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyDistribution(prot, cad); err != nil {
		t.Errorf("authentic file rejected: %v", err)
	}
	cad[100] ^= 0xFF
	if err := VerifyDistribution(prot, cad); err == nil {
		t.Error("tampered file accepted")
	}
}

func TestApplyKeyRestoreSphere(t *testing.T) {
	prot, err := NewProtectedPrism("prism")
	if err != nil {
		t.Fatal(err)
	}
	// Without the key bit: the sabotaged no-removal sphere remains.
	plain, err := ApplyKey(prot, Key{Resolution: tessellate.Fine})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(plain.Body("prism").Cavities); got != 0 {
		t.Errorf("no-key cavities = %d, want 0", got)
	}
	// With the key bit: material removal applied, solid sphere inserted.
	restored, err := ApplyKey(prot, Key{Resolution: tessellate.Fine, RestoreSphere: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(restored.Body("prism").Cavities); got != 1 {
		t.Errorf("restored cavities = %d, want 1", got)
	}
	if restored.Body("sphere").Kind != brep.Solid {
		t.Error("restored sphere should be solid")
	}
	// The original protected part must be untouched.
	if len(prot.Part.Body("prism").Cavities) != 0 {
		t.Error("ApplyKey mutated the protected part")
	}
}

func TestManufactureCorrectVsWrongKey(t *testing.T) {
	prot, err := NewProtectedPrism("prism")
	if err != nil {
		t.Fatal(err)
	}
	prof := printer.DimensionElite()

	good, err := ManufactureMemoCtx(context.Background(), prot, prot.Manifest.Key, prof, nil)
	if err != nil {
		t.Fatal(err)
	}
	if good.Quality.Grade != Good {
		t.Errorf("correct key grade = %v (%v)", good.Quality.Grade, good.Quality.Notes)
	}

	wrong := prot.Manifest.Key
	wrong.RestoreSphere = false
	bad, err := ManufactureMemoCtx(context.Background(), prot, wrong, prof, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bad.Quality.Grade != Defective {
		t.Errorf("wrong key grade = %v (%v)", bad.Quality.Grade, bad.Quality.Notes)
	}
	if bad.Quality.UnexpectedCavities == 0 {
		t.Error("wrong key should leave a washed-out cavity")
	}
}

// The paper's central result as a matrix: only (Fine/Custom, x-y) keys
// print the split bar in good quality.
func TestQualityMatrixSplitBar(t *testing.T) {
	prot, err := NewProtectedBar("bar", false)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := QualityMatrixWorkers(prot, printer.DimensionElite(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 6 {
		t.Fatalf("matrix entries = %d, want 6", len(entries))
	}
	for _, e := range entries {
		wantGood := e.Key.Orientation == mech.XY && e.Key.Resolution.Name != "coarse"
		isGood := e.Quality.Grade == Good
		if wantGood != isGood {
			t.Errorf("key %v: grade %v (surface=%t bond=%.2f disc=%.2f)",
				e.Key, e.Quality.Grade, e.Quality.SurfaceDisrupted,
				e.Quality.SeamBondQuality, e.Quality.DiscontinuousFraction)
		}
		// Every x-z print is structurally defective (Fig. 7).
		if e.Key.Orientation == mech.XZ && e.Quality.Grade != Defective {
			t.Errorf("x-z key %v should be defective, got %v", e.Key, e.Quality.Grade)
		}
	}
	good := GoodKeys(entries)
	if len(good) != 2 {
		t.Errorf("good keys = %d, want 2 (fine/custom x-y)", len(good))
	}
	tbl := MatrixTable(entries)
	out := tbl.Render()
	if !strings.Contains(out, "defective") || !strings.Contains(out, "good") {
		t.Error("matrix table missing grades")
	}
}

// The parallel quality matrix must be entry-for-entry identical to the
// serial baseline: same keys, same grades, same print-time estimates.
func TestQualityMatrixParallelMatchesSerial(t *testing.T) {
	prot, err := NewProtectedBar("bar", false)
	if err != nil {
		t.Fatal(err)
	}
	prof := printer.DimensionElite()
	serial, err := QualityMatrixWorkers(prot, prof, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := QualityMatrixWorkers(prot, prof, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(par) {
		t.Fatalf("entry counts differ: %d vs %d", len(serial), len(par))
	}
	// Provenance.StageSeconds is wall-clock-derived and legitimately
	// differs run to run; every other field must match exactly.
	strip := func(e MatrixEntry) MatrixEntry {
		if e.Provenance != nil {
			p := *e.Provenance
			p.StageSeconds = nil
			e.Provenance = &p
		}
		return e
	}
	for i := range serial {
		if !reflect.DeepEqual(strip(serial[i]), strip(par[i])) {
			t.Errorf("entry %d differs:\nserial:   %+v\nparallel: %+v", i, serial[i], par[i])
		}
	}
}

// A failing key must not discard the rest of the matrix: every entry is
// returned, failures are recorded per key, and the aggregated error lists
// them in key order.
func TestQualityMatrixPartialFailure(t *testing.T) {
	prot, err := NewProtectedBar("bar", false)
	if err != nil {
		t.Fatal(err)
	}
	bad := printer.DimensionElite()
	bad.LayerHeight = 0 // fails profile validation for every key
	entries, err := QualityMatrixWorkers(prot, bad, 0)
	if err == nil {
		t.Fatal("expected aggregated error from failing keys")
	}
	if len(entries) != 6 {
		t.Fatalf("partial matrix entries = %d, want 6", len(entries))
	}
	var list parallel.ErrorList
	if !errors.As(err, &list) {
		t.Fatalf("error %T is not a parallel.ErrorList", err)
	}
	if len(list) != 6 {
		t.Errorf("aggregated errors = %d, want 6", len(list))
	}
	for i, te := range list {
		if te.Index != i {
			t.Errorf("error %d has index %d; aggregation must be in key order", i, te.Index)
		}
	}
	for i, e := range entries {
		if e.Err == nil {
			t.Errorf("entry %d should carry its manufacture error", i)
		}
	}
	if got := GoodKeys(entries); len(got) != 0 {
		t.Errorf("failed entries counted as good keys: %v", got)
	}
	out := MatrixTable(entries).Render()
	if !strings.Contains(out, "failed") {
		t.Error("matrix table should render failed keys with the failed grade")
	}
}

// Key-space statistics over a mixed matrix: failed keys are excluded from
// print-time averages but still counted, and an all-bad matrix yields an
// infinite brute-force cost.
func TestKeySpaceFromEntriesMixed(t *testing.T) {
	good := QualityReport{Grade: Good}
	degraded := QualityReport{Grade: Degraded}
	entries := []MatrixEntry{
		{Quality: good, PrintHours: 2},
		{Quality: good, PrintHours: 4},
		{Err: errors.New("boom")},
		{Quality: degraded, PrintHours: 3},
	}
	rep := KeySpaceFromEntries(entries)
	if rep.TotalKeys != 4 || rep.GoodKeys != 2 || rep.FailedKeys != 1 {
		t.Errorf("report counts = %+v", rep)
	}
	if math.Abs(rep.MeanPrintHours-3) > 1e-12 {
		t.Errorf("mean print hours = %v, want 3", rep.MeanPrintHours)
	}
	if math.Abs(rep.ExpectedBruteForceHours-5) > 1e-12 {
		t.Errorf("expected brute force = %v, want 5", rep.ExpectedBruteForceHours)
	}
	none := KeySpaceFromEntries([]MatrixEntry{{Quality: degraded, PrintHours: 1}})
	if !math.IsInf(none.ExpectedBruteForceHours, 1) {
		t.Errorf("no good keys should cost +Inf, got %v", none.ExpectedBruteForceHours)
	}
}

func TestAuthenticateGenuineVsCounterfeit(t *testing.T) {
	prot, err := NewProtectedPrism("prism")
	if err != nil {
		t.Fatal(err)
	}
	prof := printer.DimensionElite()

	genuine, err := ManufactureMemoCtx(context.Background(), prot, prot.Manifest.Key, prof, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := Authenticate(genuine.Run.Build, &prot.Manifest)
	if rep.Verdict != Genuine {
		t.Errorf("genuine part verdict = %v (%v)", rep.Verdict, rep.Notes)
	}

	// A counterfeiter prints the stolen file without the CAD op.
	wrong := prot.Manifest.Key
	wrong.RestoreSphere = false
	fake, err := ManufactureMemoCtx(context.Background(), prot, wrong, prof, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep = Authenticate(fake.Run.Build, &prot.Manifest)
	if rep.Verdict != Counterfeit {
		t.Errorf("counterfeit verdict = %v (%v)", rep.Verdict, rep.Notes)
	}
	if !rep.CavityFound || !rep.CavityMatchesSphere {
		t.Errorf("counterfeit evidence incomplete: %+v", rep)
	}
}

func TestAuthenticateSplitCounterfeit(t *testing.T) {
	prot, err := NewProtectedBar("bar", false)
	if err != nil {
		t.Fatal(err)
	}
	prof := printer.DimensionElite()
	wrong := Key{Resolution: tessellate.Coarse, Orientation: mech.XZ}
	fake, err := ManufactureMemoCtx(context.Background(), prot, wrong, prof, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := Authenticate(fake.Run.Build, &prot.Manifest)
	if rep.Verdict != Counterfeit {
		t.Errorf("x-z counterfeit verdict = %v (%v)", rep.Verdict, rep.Notes)
	}
	if !rep.SeamDefective {
		t.Error("x-z counterfeit should show a defective seam")
	}
}

func TestKeySpaceAnalysis(t *testing.T) {
	prot, err := NewProtectedBar("bar", false)
	if err != nil {
		t.Fatal(err)
	}
	rep, entries, err := AnalyzeKeySpace(prot, printer.DimensionElite())
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalKeys != 6 || len(entries) != 6 {
		t.Errorf("key space = %d, want 6", rep.TotalKeys)
	}
	if rep.GoodKeys != 2 {
		t.Errorf("good keys = %d, want 2", rep.GoodKeys)
	}
	if rep.MeanPrintHours <= 0 {
		t.Error("mean print time should be positive")
	}
	if rep.ExpectedBruteForceHours <= rep.MeanPrintHours {
		t.Error("brute force should cost more than one attempt")
	}
}

func TestAllKeysWithSphere(t *testing.T) {
	prot, err := NewProtectedBar("bar", true)
	if err != nil {
		t.Fatal(err)
	}
	keys := AllKeys(prot)
	if len(keys) != 12 {
		t.Errorf("key space with sphere = %d, want 12", len(keys))
	}
}

func TestProtectErrors(t *testing.T) {
	part, err := brep.NewTensileBar("bar", brep.DefaultTensileBar())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ProtectSplineSplit(part, SplitOptions{Body: "missing"}); err == nil {
		t.Error("expected error for missing body")
	}
	if _, err := ProtectEmbeddedSphere(part, SphereOptions{Host: "bar", Radius: -1}); err == nil {
		t.Error("expected error for negative radius")
	}
}

func TestGradeString(t *testing.T) {
	if Good.String() != "good" || Degraded.String() != "degraded" || Defective.String() != "defective" {
		t.Error("Grade.String misbehaves")
	}
	if Genuine.String() != "genuine" || Counterfeit.String() != "counterfeit" || Suspect.String() != "suspect" {
		t.Error("Verdict.String misbehaves")
	}
}

func TestKeyString(t *testing.T) {
	k := Key{Resolution: tessellate.Fine, Orientation: mech.XZ, RestoreSphere: true}
	if got := k.String(); !strings.Contains(got, "fine") || !strings.Contains(got, "x-z") {
		t.Errorf("Key.String = %q", got)
	}
}

func TestManifestDigestStability(t *testing.T) {
	a, err := NewProtectedBar("bar", false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewProtectedBar("bar", false)
	if err != nil {
		t.Fatal(err)
	}
	if a.Manifest.CADDigest != b.Manifest.CADDigest {
		t.Error("protection should be deterministic")
	}
	if !supplychain.VerifyDigest(mustSave(t, b.Part), a.Manifest.CADDigest) {
		t.Error("digest should verify across builds")
	}
}

func mustSave(t *testing.T, p *brep.Part) []byte {
	t.Helper()
	data, err := brep.Save(p)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestBuildProtectedVocabulary(t *testing.T) {
	for _, name := range []string{"bar", "bar-sphere", "double-bar", "prism"} {
		prot, err := BuildProtected(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if prot.Part.Name != name {
			t.Fatalf("%s: part named %q", name, prot.Part.Name)
		}
	}
	if _, err := BuildProtected("teapot"); err == nil {
		t.Fatal("unknown part must not build")
	}
}

func TestRunJobProducesProvenance(t *testing.T) {
	prot, err := BuildProtected("bar")
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Part: "bar", Key: prot.Manifest.Key, Seed: 5, Simulate: true}
	job, err := RunJob(context.Background(), spec, printer.DimensionElite())
	if err != nil {
		t.Fatal(err)
	}
	if len(job.STL) == 0 {
		t.Fatal("no STL produced")
	}
	p := job.Provenance
	if p.Seed != 5 || p.Part != "bar" || p.STLSHA256 == "" || p.STLBytes != len(job.STL) {
		t.Fatalf("provenance = %+v", p)
	}
	if p.PrintHours <= 0 {
		t.Fatalf("simulated job reported %.2f print hours", p.PrintHours)
	}
	if job.Quality.Grade != Good {
		t.Fatalf("correct key graded %s", job.Quality.Grade)
	}
	// A cancelled context aborts the pipeline mid-run.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunJob(ctx, spec, printer.DimensionElite()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled job error = %v", err)
	}
}
