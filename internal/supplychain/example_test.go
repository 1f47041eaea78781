package supplychain_test

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"obfuscade/internal/brep"
	"obfuscade/internal/gcode"
	"obfuscade/internal/mesh"
	"obfuscade/internal/stl"
	"obfuscade/internal/supplychain"
	"obfuscade/internal/tessellate"
)

// Walk the process chain of paper Fig. 1 while an adversary tampers with
// each digital artifact, and show that the Table 1 mitigations catch
// every attack.
func Example() {
	part, err := brep.NewTensileBar("bracket", brep.DefaultTensileBar())
	if err != nil {
		log.Fatal(err)
	}
	pl := supplychain.DefaultPipeline()
	run, err := pl.ExecuteCtx(context.Background(), part)
	if err != nil {
		log.Fatal(err)
	}

	// The designer seals each artifact before it leaves the trusted
	// boundary.
	signer, err := supplychain.NewSigner(bytes.Repeat([]byte{42}, 32))
	if err != nil {
		log.Fatal(err)
	}
	sealedSTL := signer.Seal("bracket.stl", run.STLBytes)

	check := func(name string, attack func() error, detect func() bool) {
		if err := attack(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		status := "MISSED"
		if detect() {
			status = "DETECTED"
		}
		fmt.Printf("%-34s -> %s\n", name, status)
	}
	tessellated := func() *mesh.Mesh {
		m, err := tessellate.Tessellate(part, tessellate.Coarse)
		if err != nil {
			log.Fatal(err)
		}
		return m
	}

	// 1. STL void attack vs manifold validation.
	mesh1 := tessellated()
	check("STL void injection",
		func() error { return supplychain.VoidAttack(mesh1, 7) },
		func() bool { return len(mesh1.Validate(1e-9)) > 0 })

	// 2. STL scaling vs reference diff.
	ref := tessellated()
	mesh2 := ref.Clone()
	check("STL dimension scaling (1%)",
		func() error { return supplychain.ScaleAttack(mesh2, 1.01) },
		func() bool { return !stl.Compare(ref, mesh2).Identical(1e-6) })

	// 3. Any byte-level tamper vs digest/signature.
	tampered := append([]byte{}, sealedSTL.Data...)
	tampered[500] ^= 0xFF
	check("file substitution in transit",
		func() error { sealedSTL.Data = tampered; return nil },
		func() bool { return sealedSTL.Check(signer.Public()) != nil })

	// 4. G-code porosity vs simulation compare.
	env := gcode.DimensionEliteEnvelope()
	prog := &gcode.Program{Name: run.GCode.Name,
		Commands: append([]gcode.Command{}, run.GCode.Commands...)}
	check("G-code porosity injection",
		func() error { return supplychain.PorosityAttack(prog, 6) },
		func() bool {
			d, err := gcode.Compare(run.GCode, prog, env)
			return err == nil && !d.Equivalent(1e-3)
		})

	// 5. Malicious coordinates vs the limit-switch simulator.
	check("actuator-damage coordinates",
		func() error { supplychain.EnvelopeAttack(prog); return nil },
		func() bool {
			rep, err := gcode.SimulateCtx(context.Background(), prog, env)
			return err == nil && !rep.OK()
		})

	// 6. CAD Trojan vs CT inspection of the printed part.
	trojaned, err := brep.NewTensileBar("bracket", brep.DefaultTensileBar())
	if err != nil {
		log.Fatal(err)
	}
	check("CAD design Trojan (hidden cavity)",
		func() error { return supplychain.CADTrojanAttack(trojaned, nil) },
		func() bool {
			run2, err := pl.ExecuteCtx(context.Background(), trojaned)
			return err == nil && len(run2.Build.Grid.InternalCavities()) > 0
		})
	// Output:
	// STL void injection                 -> DETECTED
	// STL dimension scaling (1%)         -> DETECTED
	// file substitution in transit       -> DETECTED
	// G-code porosity injection          -> DETECTED
	// actuator-damage coordinates        -> DETECTED
	// CAD design Trojan (hidden cavity)  -> DETECTED
}
