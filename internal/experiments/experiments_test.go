package experiments

import (
	"fmt"
	"strings"
	"testing"
)

func TestTable1(t *testing.T) {
	tbl, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.Render(), "design obfuscation") {
		t.Error("Table 1 missing the ObfusCADe row")
	}
}

func TestTable2ShapeMatchesPaper(t *testing.T) {
	tbl, groups, err := Table2(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.Render()
	for _, h := range []string{"Spline x-y", "Spline x-z", "Intact x-y", "Intact x-z",
		"Young's modulus", "Toughness"} {
		if !strings.Contains(out, h) {
			t.Errorf("Table 2 missing %q", h)
		}
	}
	if err := Table2ShapeCheck(groups); err != nil {
		t.Errorf("Table 2 shape check: %v\n%s", err, out)
	}
}

func TestTable3MatchesPaper(t *testing.T) {
	tbl, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tbl.Rows))
	}
	want := []string{"Support material", "Support material", "Model material", "Support material"}
	for i, w := range want {
		if tbl.Rows[i][2] != w {
			t.Errorf("row %d material = %q, want %q", i, tbl.Rows[i][2], w)
		}
	}
}

func TestFig1(t *testing.T) {
	tbl, err := Fig1()
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.Render()
	for _, stage := range []string{"CAD model", "FEA", "STL export", "Slicing", "G-code", "3D printing", "Testing"} {
		if !strings.Contains(out, stage) {
			t.Errorf("Fig. 1 missing stage %q", stage)
		}
	}
}

func TestFig2(t *testing.T) {
	out := Fig2()
	for _, want := range []string{"Theft of technical data", "Sabotage", "Counterfeiting"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig. 2 missing %q", want)
		}
	}
}

func TestFig3(t *testing.T) {
	tbl, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 5 {
		t.Errorf("Fig. 3 rows = %d", len(tbl.Rows))
	}
}

func TestFig4MismatchShrinksWithResolution(t *testing.T) {
	series, tbl, err := Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(series.X) != 3 {
		t.Fatalf("series points = %d", len(series.X))
	}
	// Coarse-to-fine order: mismatch strictly decreasing.
	for i := 0; i+1 < len(series.Y); i++ {
		if series.Y[i] <= series.Y[i+1] {
			t.Errorf("mismatch should shrink with finer resolution: %v", series.Y)
		}
	}
	if len(tbl.Rows) != 3 {
		t.Errorf("table rows = %d", len(tbl.Rows))
	}
}

func TestFig5FileSizesGrow(t *testing.T) {
	tbl, err := Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Custom row should have more triangles than coarse row.
	if tbl.Rows[0][3] >= tbl.Rows[2][3] && len(tbl.Rows[0][3]) >= len(tbl.Rows[2][3]) {
		t.Errorf("triangle counts should grow coarse->custom: %v vs %v",
			tbl.Rows[0][3], tbl.Rows[2][3])
	}
}

func TestFig6Orientations(t *testing.T) {
	tbl, err := Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	if tbl.Rows[0][0] != "x-y" || tbl.Rows[1][0] != "x-z" {
		t.Errorf("orientation rows: %v", tbl.Rows)
	}
}

func TestFig7DiscontinuityAtAllResolutions(t *testing.T) {
	tbl, err := Fig7()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		if row[1] == "0%" {
			t.Errorf("x-z %s shows no discontinuity; paper requires it at all resolutions", row[0])
		}
	}
}

func TestFig8CoarseOnlyVisible(t *testing.T) {
	tbl, err := Fig8()
	if err != nil {
		t.Fatal(err)
	}
	// Rows: coarse, fine, custom (spline) then intact.
	if tbl.Rows[0][3] != "yes" {
		t.Error("coarse x-y should be visibly disrupted")
	}
	for _, i := range []int{1, 2, 3} {
		if tbl.Rows[i][3] != "no" {
			t.Errorf("row %d should be clean: %v", i, tbl.Rows[i])
		}
	}
}

func TestFig9KtAboveOne(t *testing.T) {
	tbl, err := Fig9()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	if !strings.HasPrefix(tbl.Rows[0][1], "1.0") {
		t.Errorf("zero-depth Kt should be ~1: %v", tbl.Rows[0])
	}
}

func TestFig10SphereArtifacts(t *testing.T) {
	tbl, err := Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Row 2 (solid, removal) prints dense: no cavity after wash.
	if tbl.Rows[2][1] != "model" || tbl.Rows[2][3] != "none" {
		t.Errorf("solid-removal row: %v", tbl.Rows[2])
	}
	// Rows 0, 1, 3 leave a cavity.
	for _, i := range []int{0, 1, 3} {
		if tbl.Rows[i][3] != "yes" {
			t.Errorf("row %d should leave cavity: %v", i, tbl.Rows[i])
		}
	}
}

// The paper's cross-printer claim (§3.1): on the PolyJet profile the
// spline feature manifests exactly where it does on FDM. Coarse x-y,
// coarse x-z and custom x-z print it; custom x-y, the key, does not.
func TestPolyJetReplicationPattern(t *testing.T) {
	tbl, err := PolyJetReplication()
	if err != nil {
		t.Fatal(err)
	}
	want := map[[2]string]string{
		{"coarse", "x-y"}: "yes",
		{"coarse", "x-z"}: "yes",
		{"custom", "x-y"}: "no",
		{"custom", "x-z"}: "yes",
	}
	if len(tbl.Rows) != len(want) {
		t.Fatalf("PolyJet rows = %d, want %d:\n%s", len(tbl.Rows), len(want), tbl.Render())
	}
	for _, r := range tbl.Rows {
		if got, w := r[4], want[[2]string{r[0], r[1]}]; got != w {
			t.Errorf("%s %s: feature manifested = %q, want %q", r[0], r[1], got, w)
		}
	}
}

func TestSideChannelLeakage(t *testing.T) {
	tbl, err := SideChannelLeakage()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestKeySpace(t *testing.T) {
	tbl, rep, err := KeySpace()
	if err != nil {
		t.Fatal(err)
	}
	if rep.GoodKeys != 2 || rep.TotalKeys != 6 {
		t.Errorf("key space report: %+v", rep)
	}
	if len(tbl.Rows) != 6 {
		t.Errorf("matrix rows = %d", len(tbl.Rows))
	}
}

func TestSTLTheftResolutionFrozen(t *testing.T) {
	tbl, err := STLTheft()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(tbl.Rows))
	}
	// Coarse exports: no orientation prints Good.
	for _, row := range tbl.Rows {
		if row[0] == "coarse" && row[2] == "good" {
			t.Errorf("stolen coarse STL should never print good: %v", row)
		}
		// x-z is always defective regardless of export resolution.
		if row[1] == "x-z" && row[2] != "defective" {
			t.Errorf("stolen STL in x-z should be defective: %v", row)
		}
	}
	// Custom export in x-y leaks a good print.
	found := false
	for _, row := range tbl.Rows {
		if row[0] == "custom" && row[1] == "x-y" && row[2] == "good" {
			found = true
		}
	}
	if !found {
		t.Error("custom export in x-y should print good")
	}
}

func TestAblationMultiSplit(t *testing.T) {
	tbl, err := AblationMultiSplit()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tbl.Rows))
	}
	// Correct-key rows are good; wrong-key rows are defective.
	for i, row := range tbl.Rows {
		wantGood := i%2 == 0
		if wantGood && row[2] != "good" {
			t.Errorf("row %d should be good: %v", i, row)
		}
		if !wantGood && row[2] != "defective" {
			t.Errorf("row %d should be defective: %v", i, row)
		}
	}
}

func TestAblationHealing(t *testing.T) {
	tbl, err := AblationHealing()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Bond quality must be non-decreasing with heal fraction.
	prev := ""
	for _, row := range tbl.Rows {
		if prev != "" && row[1] < prev {
			t.Errorf("bond quality should not decrease with healing: %v", tbl.Rows)
		}
		prev = row[1]
	}
}

func TestNDTFlagsAttacks(t *testing.T) {
	tbl, err := NDT()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tbl.Rows))
	}
	if tbl.Rows[0][5] != "no" {
		t.Errorf("clean print flagged: %v", tbl.Rows[0])
	}
	for _, i := range []int{1, 2, 3} {
		if tbl.Rows[i][5] != "YES" {
			t.Errorf("attack row %d not flagged: %v", i, tbl.Rows[i])
		}
	}
}

func TestTable2ExtendedPredictions(t *testing.T) {
	tbl, err := Table2Extended(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(tbl.Rows))
	}
	// Row order: intact x-y, coarse/fine/custom x-y, intact x-z, then x-z.
	get := func(i int) string { return tbl.Rows[i][3] } // failure strain cell
	// The genuine condition (custom x-y, row 3) matches intact x-y
	// (row 0) within noise, while coarse x-y (row 1) is heavily reduced.
	intact := parseMean(t, get(0))
	coarse := parseMean(t, get(1))
	custom := parseMean(t, get(3))
	if coarse > 0.6*intact {
		t.Errorf("coarse x-y strain %v vs intact %v: too strong", coarse, intact)
	}
	if custom < 0.85*intact {
		t.Errorf("custom x-y strain %v vs intact %v: genuine condition compromised", custom, intact)
	}
	// Every x-z split row is well below intact x-z (row 4). The margin
	// leaves room for small-sample noise (n = 5 replicates).
	intactXZ := parseMean(t, get(4))
	for _, i := range []int{5, 6, 7} {
		if v := parseMean(t, get(i)); v > 0.65*intactXZ {
			t.Errorf("x-z row %d strain %v vs intact %v", i, v, intactXZ)
		}
	}
}

func parseMean(t *testing.T, cell string) float64 {
	t.Helper()
	var mean, std float64
	if _, err := fmt.Sscanf(strings.ReplaceAll(cell, "±", " "), "%g %g", &mean, &std); err != nil {
		t.Fatalf("cannot parse stat cell %q: %v", cell, err)
	}
	return mean
}
