package main

import (
	"errors"
	"testing"
)

func TestRunSingleExperiments(t *testing.T) {
	// The fast experiments, one by one; the slow ones (table2, polyjet)
	// are covered by the experiments package tests and the benchmarks.
	for _, exp := range []string{"table1", "fig2", "fig5", "fig6", "fig9"} {
		if err := run(runOpts{exp: exp, n: 2, seed: 1}); err != nil {
			t.Errorf("run(%s): %v", exp, err)
		}
	}
}

func TestRunCSV(t *testing.T) {
	if err := run(runOpts{exp: "fig5", n: 2, seed: 1, csv: true}); err != nil {
		t.Errorf("run csv: %v", err)
	}
}

func TestRunUnknown(t *testing.T) {
	err := run(runOpts{exp: "nope", n: 2, seed: 1})
	if err == nil {
		t.Fatal("expected error for unknown experiment")
	}
	// The unknown-experiment error must stay identifiable so main can exit
	// with the dedicated code (3), distinguishable from flag-parse errors
	// (2) and experiment failures (1).
	if !errors.Is(err, errUnknownExperiment) {
		t.Errorf("error %v does not wrap errUnknownExperiment", err)
	}
}

func TestKnownExperimentErrorIsNotUnknown(t *testing.T) {
	// A run that executed (successfully or not) must never be classified
	// as an unknown experiment.
	if err := run(runOpts{exp: "fig5", n: 2, seed: 1}); errors.Is(err, errUnknownExperiment) {
		t.Errorf("fig5 misclassified as unknown experiment: %v", err)
	}
}
