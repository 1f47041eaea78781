package brep_test

import (
	"testing"

	"obfuscade/internal/brep"
	"obfuscade/internal/core"
)

// FuzzLoad feeds hostile .ocad bytes to Load. Invariant: Load never
// panics, and a part it accepts re-Saves and re-Loads without error.
// The corpus seeds are the Save bytes of every catalog part, a stepped
// shaft (the revolve shape) and a revolve whose last profile piece is
// empty.
func FuzzLoad(f *testing.F) {
	for _, name := range []string{"bar", "bar-sphere", "double-bar", "prism"} {
		prot, err := core.BuildProtected(name)
		if err != nil {
			f.Fatal(err)
		}
		data, err := brep.Save(prot.Part)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	shaft, err := brep.NewShaft("shaft", 10, 6, 25, 3)
	if err != nil {
		f.Fatal(err)
	}
	data, err := brep.Save(shaft)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(`{"format":"OCAD-1","bodies":[{"kind":"solid","shape":{"kind":"revolve","x0":0,"x1":1,"pieces":[[]]}}]}`))
	// Compact seeds give the mutator small shapes to work on.
	f.Add([]byte(`{"format":"OCAD-1","bodies":[{"kind":"surface","shape":{"kind":"sphere","center":{"X":1,"Y":1,"Z":1},"r":1}}]}`))
	f.Add([]byte(`{"format":"OCAD-1","bodies":[{"kind":"solid","shape":{"kind":"prism","z0":0,"z1":2,` +
		`"top":{"kind":"line","x0":0,"y0":3,"x1":5,"y1":3},"bottom":{"kind":"func","x0":0,"x1":5,"samples":[{"X":0,"Y":0},{"X":5,"Y":1}]}}}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := brep.Load(data)
		if err != nil {
			return
		}
		again, err := brep.Save(p)
		if err != nil {
			t.Fatalf("accepted part does not re-save: %v", err)
		}
		if _, err := brep.Load(again); err != nil {
			t.Fatalf("re-saved part does not re-load: %v", err)
		}
	})
}
