package core_test

import (
	"context"
	"fmt"
	"log"

	"obfuscade/internal/core"
	"obfuscade/internal/mech"
	"obfuscade/internal/printer"
	"obfuscade/internal/tessellate"
)

// Protect a design, manufacture it with the correct and a wrong key, and
// compare the outcomes — the minimal ObfusCADe workflow.
func Example() {
	prot, err := core.NewProtectedBar("demo", false)
	if err != nil {
		log.Fatal(err)
	}
	prof := printer.DimensionElite()

	good, err := core.ManufactureMemoCtx(context.Background(), prot, prot.Manifest.Key, prof, nil)
	if err != nil {
		log.Fatal(err)
	}
	wrong := core.Key{Resolution: tessellate.Coarse, Orientation: mech.XZ}
	bad, err := core.ManufactureMemoCtx(context.Background(), prot, wrong, prof, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("correct key:", good.Quality.Grade)
	fmt.Println("wrong key:  ", bad.Quality.Grade)
	// Output:
	// correct key: good
	// wrong key:   defective
}

// Authenticate a printed part against the secret manifest.
func ExampleAuthenticate() {
	prot, err := core.NewProtectedPrism("valve")
	if err != nil {
		log.Fatal(err)
	}
	prof := printer.DimensionElite()
	counterfeitKey := prot.Manifest.Key
	counterfeitKey.RestoreSphere = false
	fake, err := core.ManufactureMemoCtx(context.Background(), prot, counterfeitKey, prof, nil)
	if err != nil {
		log.Fatal(err)
	}
	rep := core.Authenticate(fake.Run.Build, &prot.Manifest)
	fmt.Println("verdict:", rep.Verdict)
	fmt.Println("cavity found:", rep.CavityFound)
	// Output:
	// verdict: counterfeit
	// cavity found: true
}
