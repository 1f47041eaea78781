package watermark_test

import (
	"fmt"
	"log"

	"obfuscade/internal/brep"
	"obfuscade/internal/stl"
	"obfuscade/internal/tessellate"
	"obfuscade/internal/watermark"
)

// Ship each partner an individually marked copy of a design, then trace
// a leaked copy back to the partner who leaked it — Table 1's
// "identification codes and marks", with traitor tracing.
func ExampleDetect() {
	part, err := brep.NewTensileBar("impeller", brep.DefaultTensileBar())
	if err != nil {
		log.Fatal(err)
	}
	original, err := tessellate.Tessellate(part, tessellate.Fine)
	if err != nil {
		log.Fatal(err)
	}

	partners := []string{"partner-alpha", "partner-beta", "partner-gamma"}
	copies := map[string][]byte{}
	for _, name := range partners {
		marked := original.Clone()
		if _, err := watermark.Embed(marked, []byte(name), watermark.DefaultAmplitude); err != nil {
			log.Fatal(err)
		}
		data, err := stl.Marshal(marked, stl.Binary, part.Name)
		if err != nil {
			log.Fatal(err)
		}
		copies[name] = data
	}

	// A counterfeit file surfaces; it is partner-beta's copy.
	leaked, err := stl.Unmarshal(copies["partner-beta"])
	if err != nil {
		log.Fatal(err)
	}
	for _, name := range partners {
		res, err := watermark.Detect(original, leaked, []byte(name), watermark.DefaultAmplitude)
		if err != nil {
			log.Fatal(err)
		}
		verdict := ""
		if res.Present() {
			verdict = "  <-- LEAK SOURCE"
		}
		fmt.Printf("%-14s correlation %5.2f%s\n", name, res.Score, verdict)
	}
	// Output:
	// partner-alpha  correlation -0.03
	// partner-beta   correlation  1.00  <-- LEAK SOURCE
	// partner-gamma  correlation  0.07
}
