package gcode_test

import (
	"context"
	"fmt"
	"log"

	"obfuscade/internal/gcode"
)

// Parse a received G-code job, simulate it against the machine envelope,
// and inspect what it would physically do — the defender's pre-flight
// check (Table 1, "Simulation of generated G-code").
func Example() {
	job := `
G21 ; millimetres
G90 ; absolute
G92 E0
G1 Z0.1778 F4800
G0 X10 Y10
G1 X30 Y10 E0.66 F1800
G1 X30 Y20 E0.99
G1 X10 Y20 E1.65
G1 X10 Y10 E1.98
`
	prog, err := gcode.Unmarshal([]byte(job))
	if err != nil {
		log.Fatal(err)
	}
	rep, err := gcode.SimulateCtx(context.Background(), prog, gcode.DimensionEliteEnvelope())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("violations:", len(rep.Violations))
	fmt.Printf("extruded: %.0f mm over %d layer(s)\n", rep.ExtrudeLength, rep.Layers)
	// Output:
	// violations: 0
	// extruded: 60 mm over 1 layer(s)
}
