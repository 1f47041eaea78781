// Package supplychain models the cloud-aware additive-manufacturing
// process chain of paper Fig. 1, the attack taxonomy of Fig. 2 and the
// per-stage risk/mitigation registry of Table 1 — including *executable*
// attacks on the digital artifacts and the defender-side integrity checks
// that catch them.
package supplychain

import "obfuscade/internal/report"

// Stage is one step of the AM process chain (paper Fig. 1).
type Stage int

const (
	// StageCAD covers CAD modelling and FEA optimisation.
	StageCAD Stage = iota
	// StageSTL covers the exported STL file.
	StageSTL
	// StageSlicing covers slicing and G-code generation.
	StageSlicing
	// StagePrinter covers the printer firmware and machine.
	StagePrinter
	// StageTesting covers post-print inspection and testing.
	StageTesting
)

// String implements fmt.Stringer.
func (s Stage) String() string {
	switch s {
	case StageCAD:
		return "CAD model & FEA"
	case StageSTL:
		return "STL file"
	case StageSlicing:
		return "Slicing & G-code"
	case StagePrinter:
		return "3D Printer"
	case StageTesting:
		return "Testing"
	default:
		return "unknown"
	}
}

// Risk is one row fragment of Table 1: a risk description paired with the
// mitigation strategies that counter it.
type Risk struct {
	Stage       Stage
	Description string
	Mitigations []string
}

// Registry returns the paper's Table 1 as structured data.
func Registry() []Risk {
	return []Risk{
		{StageCAD, "IP theft, ransomware, software Trojans, malware",
			[]string{"Data-Loss Prevention software, code reviews, periodic backups"}},
		{StageCAD, "CAD libraries & FEA databases corruption/modification",
			[]string{"IP file access/integrity controls, entitlement reviews"}},
		{StageCAD, "Malicious insider corrupts CAD model, adds vulnerabilities",
			[]string{"CAD-level design obfuscation for IP protection (this work)"}},
		{StageSTL, "Removal/addition of tetrahedrons (voids/protrusions)",
			[]string{"Review 3D rendering/file contents/manifold geometry errors"}},
		{StageSTL, "Dimension & ratio scaling, shape changes, end point changes",
			[]string{"Verification of digital signatures, file sizes/hashes"}},
		{StageSTL, "File theft/loss/corruption, ransomware",
			[]string{"Strict access control to files, regular backups"}},
		{StageSTL, "Stego-channel data exfiltration (information leakage) via facet order & coordinate LSBs",
			[]string{"Sanitize design files: canonical facet sort + coordinate re-quantization (POST /sanitize)"}},
		{StageSlicing, "Orientation changes, addition of porosity/contaminants",
			[]string{"Simulation of generated G-code, code review"}},
		{StageSlicing, "Damage to printer actuators using malicious coordinates",
			[]string{"Actuator limit switch preventing physical damage"}},
		{StageSlicing, "IP theft/reverse-engineering, reconstruction of CAD model",
			[]string{"Periodic review of printer parameters, strict access controls"}},
		{StagePrinter, "Malicious firmware updates, unauthorized remote access",
			[]string{"Strict access control, network firewalls, secure updates"}},
		{StagePrinter, "Activation of firmware Trojans, malicious operator",
			[]string{"Inspection of printed object, measurement of weight/density"}},
		{StagePrinter, "Acoustic/thermal side channels, IP theft, information leakage",
			[]string{"Side-channel shielding, noise emission, physical access controls"}},
		{StagePrinter, "File parser/firmware zero-day, corrupted calibration files",
			[]string{"Tensile strength test, X-Ray/Ultrasound/CT scan reconstruction"}},
		{StageTesting, "Detection granularity versus test time trade-off",
			[]string{"High resolution CT/ultrasonic tests on random samples"}},
		{StageTesting, "Low CT/ultrasonic equipment resolution",
			[]string{"Use higher resolution equipment, test over different angles"}},
	}
}

// Table1 renders the registry in the layout of the paper's Table 1.
func Table1() *report.Table {
	t := &report.Table{
		Title:   "Table 1: Cybersecurity risks during different stages of the AM supply chain",
		Headers: []string{"AM stage", "Cybersecurity risk", "Risk-mitigation strategy"},
	}
	for _, r := range Registry() {
		for i, m := range r.Mitigations {
			stage, desc := "", ""
			if i == 0 {
				stage, desc = r.Stage.String(), r.Description
			}
			t.AddRow(stage, desc, m)
		}
	}
	return t
}

// TaxonomyNode is one node of the attack taxonomy tree (paper Fig. 2).
type TaxonomyNode struct {
	Name     string
	Children []*TaxonomyNode
	// AttackIDs name the executable attacks of this category (the
	// package's tests demonstrate each one), empty for non-leaf
	// categories.
	AttackIDs []string
}

// Taxonomy returns the attack taxonomy of paper Fig. 2: attacks organised
// by adversarial goal across the system's abstraction levels.
func Taxonomy() *TaxonomyNode {
	return &TaxonomyNode{
		Name: "Attacks in additive manufacturing",
		Children: []*TaxonomyNode{
			{
				Name: "Theft of technical data (IP theft)",
				Children: []*TaxonomyNode{
					{Name: "Digital file theft (CAD/STL/G-code exfiltration)", AttackIDs: []string{"file-theft"}},
					{Name: "Stego-channel exfiltration in design files (facet order, coordinate LSBs)", AttackIDs: []string{"stl-stego"}},
					{Name: "Tool-path reverse engineering", AttackIDs: []string{"toolpath-re"}},
					{Name: "Side-channel leakage (acoustic/magnetic/thermal)", AttackIDs: []string{"side-channel"}},
				},
			},
			{
				Name: "Sabotage (quality degradation)",
				Children: []*TaxonomyNode{
					{Name: "STL design tampering (voids, scaling, reorientation)", AttackIDs: []string{"stl-void", "stl-scale", "stl-reorient"}},
					{Name: "G-code tampering (porosity, contaminant paths)", AttackIDs: []string{"gcode-porosity"}},
					{Name: "Firmware Trojans / corrupted calibration", AttackIDs: []string{"firmware-trojan"}},
					{Name: "Equipment damage (malicious coordinates)", AttackIDs: []string{"gcode-envelope"}},
				},
			},
			{
				Name: "Counterfeiting and overproduction",
				Children: []*TaxonomyNode{
					{Name: "Unauthorized reproduction from stolen files", AttackIDs: []string{"counterfeit"}},
					{Name: "Overproduction by contracted manufacturer", AttackIDs: []string{"overproduction"}},
				},
			},
		},
	}
}

// Walk visits every node depth-first.
func (n *TaxonomyNode) Walk(f func(depth int, node *TaxonomyNode)) {
	var rec func(d int, node *TaxonomyNode)
	rec = func(d int, node *TaxonomyNode) {
		f(d, node)
		for _, c := range node.Children {
			rec(d+1, c)
		}
	}
	rec(0, n)
}
