package stego

import (
	"fmt"

	"obfuscade/internal/stl"
)

// SanitizeReport is the service- and CLI-facing result of sanitizing
// one design file: the detector's verdict before and after, so callers
// see both what the file looked like on arrival and proof the output is
// canonical.
type SanitizeReport struct {
	Version   string  `json:"version"`
	Triangles int     `json:"triangles"`
	Quantum   float64 `json:"quantum"`
	Before    Report  `json:"before"`
	After     Report  `json:"after"`
}

// SanitizeSTL decodes an STL file (binary or ASCII), destroys its stego
// channels, and re-encodes it as binary STL. The output is canonical:
// sanitizing the result again returns identical bytes. Its header is
// the fixed sanitizedHeader, so no input byte survives in it.
func SanitizeSTL(data []byte, opts Options) ([]byte, SanitizeReport, error) {
	opts = opts.withDefaults()
	var rep SanitizeReport
	m, err := stl.Unmarshal(data)
	if err != nil {
		return nil, rep, fmt.Errorf("stego: %w", err)
	}
	rep.Version = Version
	rep.Quantum = opts.Quantum
	rep.Before = Detect(m, opts)
	clean := Sanitize(m, opts)
	rep.After = Detect(clean, opts)
	rep.Triangles = clean.TriangleCount()
	out, err := stl.Marshal(clean, stl.Binary, sanitizedHeader)
	if err != nil {
		return nil, rep, fmt.Errorf("stego: %w", err)
	}
	return out, rep, nil
}
