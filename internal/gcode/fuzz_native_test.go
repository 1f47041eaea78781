package gcode

import (
	"context"
	"testing"
)

// Native fuzz target: the parser must never panic, and anything it parses
// must simulate without panicking.
func FuzzParse(f *testing.F) {
	f.Add("G21\nG90\nG1 X10 Y10 E0.5 F1800\n")
	f.Add("; comment only\n")
	f.Add("T0\nG92 E0\nG0 X-5\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Unmarshal([]byte(src))
		if err != nil || len(p.Commands) == 0 {
			return
		}
		if _, err := SimulateCtx(context.Background(), p, DimensionEliteEnvelope()); err != nil {
			return
		}
	})
}
