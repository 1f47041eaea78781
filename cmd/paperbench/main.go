// Command paperbench regenerates every table and figure of the
// ObfusCADe paper's evaluation.
//
// Usage:
//
//	paperbench [-exp all|table1..3|fig1..fig10|polyjet|sidechannel|keyspace|matrix|ablation]
//	           [-n replicates] [-seed n] [-csv] [-workers n] [-stats]
//	           [-debug-addr addr] [-trace-out file] [-manifest-out file]
//	           [-cpuprofile file] [-memprofile file]
//
// -stats prints the per-stage pipeline metrics (package obs) after the
// experiments finish. -debug-addr serves the unified debug surface
// (/metrics in Prometheus text format, /metrics.json, /trace as a
// Chrome trace download, /trace.ndjson, and /debug/pprof) for the
// duration of the run; -pprof is a deprecated alias. The bind happens
// synchronously before any experiment runs — a bad address or occupied
// port aborts with exit code 4 instead of silently continuing.
//
// -trace-out writes the run's trace ring buffer as Chrome trace JSON
// (loadable in Perfetto / chrome://tracing) on exit. -cpuprofile and
// -memprofile write pprof profiles covering the whole run (the
// allocation profile is written on exit after a final GC); unlike
// -debug-addr they need no live scrape, so they are the tool of choice
// for profiling a single `-exp matrix` pass. See EXPERIMENTS.md
// ("Profiling the pipeline") for how to read them. -exp matrix runs the
// reference quality matrix and, with -manifest-out, writes one NDJSON
// provenance line per processing key. Performance is measured by the
// benchmark harness under bench/ (bash bench/run.sh), not here.
//
// Exit codes: 0 success, 1 experiment failure, 2 flag-parse error,
// 3 unknown -exp name, 4 debug-server bind failure.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"obfuscade/internal/core"
	"obfuscade/internal/experiments"
	"obfuscade/internal/obs"
	"obfuscade/internal/parallel"
	"obfuscade/internal/printer"
	"obfuscade/internal/report"
	"obfuscade/internal/trace"
)

// errUnknownExperiment distinguishes a bad -exp name (exit code 3) from
// an experiment that ran and failed (exit code 1). Flag-parse errors keep
// the flag package's exit code 2, so scripts can tell the three apart.
var errUnknownExperiment = errors.New("unknown experiment")

const (
	exitUnknownExperiment = 3
	exitDebugBind         = 4
)

// runOpts carries the flag values the experiment runner needs.
type runOpts struct {
	exp         string
	n           int
	seed        int64
	csv         bool
	manifestOut string
}

func main() {
	exp := flag.String("exp", "all", "experiment to run (all, table1..3, fig1..fig10, polyjet, sidechannel, keyspace, matrix, stltheft, ndt, servicelife, ablation)")
	n := flag.Int("n", 5, "tensile replicates per group")
	seed := flag.Int64("seed", 1, "process noise seed")
	csv := flag.Bool("csv", false, "emit tables as CSV")
	workers := flag.Int("workers", 0, "worker pool size for parallel stages (0 = all CPUs)")
	stats := flag.Bool("stats", false, "print per-stage pipeline metrics after the run")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /metrics.json, /trace and /debug/pprof on this address (e.g. localhost:6060)")
	pprofAddr := flag.String("pprof", "", "deprecated alias for -debug-addr")
	traceOut := flag.String("trace-out", "", "write the run's Chrome trace JSON to this file on exit")
	manifestOut := flag.String("manifest-out", "", "write per-key provenance manifests (NDJSON) for -exp matrix to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof allocation profile to this file on exit")
	flag.Parse()
	parallel.SetDefault(*workers)

	// os.Exit skips defers, so every exit path below must call
	// stopProfiles explicitly — a truncated CPU profile is unreadable.
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(1)
	}

	if addr := firstNonEmpty(*debugAddr, *pprofAddr); addr != "" {
		srv, err := trace.StartDebugServer(addr, obs.Default(), trace.Default())
		if err != nil {
			// A debug surface the operator asked for but cannot reach is a
			// silent observability hole; fail loudly with a distinct code.
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			stopProfiles()
			os.Exit(exitDebugBind)
		}
		defer srv.Close()
		fmt.Fprintln(os.Stderr, "paperbench: debug server on", srv.URL())
	}

	err = run(runOpts{exp: *exp, n: *n, seed: *seed, csv: *csv, manifestOut: *manifestOut})
	if *stats {
		obs.Default().Snapshot().WriteText(os.Stdout)
	}
	if *traceOut != "" {
		if terr := writeTrace(*traceOut); terr != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", terr)
			if err == nil {
				err = terr
			}
		}
	}
	stopProfiles()
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		if errors.Is(err, errUnknownExperiment) {
			os.Exit(exitUnknownExperiment)
		}
		os.Exit(1)
	}
}

// startProfiles begins CPU profiling (when cpuPath is set) and returns
// a stop function that finalises the CPU profile and writes the
// allocation profile (when memPath is set). The stop function must run
// on every exit path: os.Exit skips defers and a CPU profile that was
// never stopped is truncated mid-record.
func startProfiles(cpuPath, memPath string) (func(), error) {
	stopCPU := func() {}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		stopCPU = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	return func() {
		stopCPU()
		if memPath == "" {
			return
		}
		f, err := os.Create(memPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			return
		}
		// The allocs profile records cumulative allocation sites; a final
		// GC settles the in-use numbers so -sample_index=inuse_space is
		// meaningful too.
		runtime.GC()
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
		}
		f.Close()
	}, nil
}

func firstNonEmpty(vals ...string) string {
	for _, v := range vals {
		if v != "" {
			return v
		}
	}
	return ""
}

// writeTrace dumps the default recorder's ring buffer as Chrome trace
// JSON for Perfetto / chrome://tracing.
func writeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.Default().WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func run(opts runOpts) error {
	exp, n, seed, csv := opts.exp, opts.n, opts.seed, opts.csv
	emit := func(t *report.Table) {
		if csv {
			fmt.Print(t.CSV())
		} else {
			fmt.Println(t.Render())
		}
	}
	want := func(name string) bool { return exp == "all" || strings.EqualFold(exp, name) }
	ran := false

	if want("table1") {
		ran = true
		t, err := experiments.Table1()
		if err != nil {
			return err
		}
		emit(t)
	}
	if want("table2") {
		ran = true
		t, groups, err := experiments.Table2(n, seed)
		if err != nil {
			return err
		}
		emit(t)
		if err := experiments.Table2ShapeCheck(groups); err != nil {
			fmt.Printf("shape check: FAILED: %v\n\n", err)
		} else {
			fmt.Printf("shape check: OK (split parts lose >=50%% failure strain, >=2x toughness)\n\n")
		}
		ext, err := experiments.Table2Extended(n, seed)
		if err != nil {
			return err
		}
		emit(ext)
	}
	if want("table3") {
		ran = true
		t, err := experiments.Table3()
		if err != nil {
			return err
		}
		emit(t)
	}
	if want("fig1") {
		ran = true
		t, err := experiments.Fig1()
		if err != nil {
			return err
		}
		emit(t)
	}
	if want("fig2") {
		ran = true
		fmt.Println(experiments.Fig2())
		emit(experiments.RiskMatrix())
	}
	if want("fig3") {
		ran = true
		t, err := experiments.Fig3()
		if err != nil {
			return err
		}
		emit(t)
	}
	if want("fig4") {
		ran = true
		series, t, err := experiments.Fig4()
		if err != nil {
			return err
		}
		fmt.Println(series.Render())
		emit(t)
	}
	if want("fig5") {
		ran = true
		t, err := experiments.Fig5()
		if err != nil {
			return err
		}
		emit(t)
	}
	if want("fig6") {
		ran = true
		t, err := experiments.Fig6()
		if err != nil {
			return err
		}
		emit(t)
	}
	if want("fig7") {
		ran = true
		t, err := experiments.Fig7()
		if err != nil {
			return err
		}
		emit(t)
	}
	if want("fig8") {
		ran = true
		t, err := experiments.Fig8()
		if err != nil {
			return err
		}
		emit(t)
	}
	if want("fig9") {
		ran = true
		t, err := experiments.Fig9()
		if err != nil {
			return err
		}
		emit(t)
		if !csv {
			field, err := experiments.Fig9Field()
			if err != nil {
				return err
			}
			fmt.Println("von Mises field around the split tip ('o' = slit, '@' = peak):")
			fmt.Println(field)
		}
	}
	if want("fig10") {
		ran = true
		t, err := experiments.Fig10()
		if err != nil {
			return err
		}
		emit(t)
		if !csv {
			hollow, dense, err := experiments.Fig10Sections()
			if err != nil {
				return err
			}
			fmt.Println("Fig. 10c analogue — sphere without material removal, cut open after wash-out:")
			fmt.Println(hollow)
			fmt.Println("Fig. 10d analogue — material removal + solid sphere, fully dense:")
			fmt.Println(dense)
		}
	}
	if want("polyjet") {
		ran = true
		t, err := experiments.PolyJetReplication()
		if err != nil {
			return err
		}
		emit(t)
	}
	if want("sidechannel") {
		ran = true
		t, err := experiments.SideChannelLeakage()
		if err != nil {
			return err
		}
		emit(t)
	}
	if want("keyspace") {
		ran = true
		t, rep, err := experiments.KeySpace()
		if err != nil {
			return err
		}
		emit(t)
		fmt.Printf("key space: %d keys, %d good; mean print %.2f h; expected brute force %.2f h\n\n",
			rep.TotalKeys, rep.GoodKeys, rep.MeanPrintHours, rep.ExpectedBruteForceHours)
	}
	if want("matrix") {
		ran = true
		if err := runMatrix(seed, opts.manifestOut, emit); err != nil {
			return err
		}
	}
	if want("ndt") {
		ran = true
		t, err := experiments.NDT()
		if err != nil {
			return err
		}
		emit(t)
	}
	if want("servicelife") {
		ran = true
		t, err := experiments.ServiceLife()
		if err != nil {
			return err
		}
		emit(t)
	}
	if want("stltheft") {
		ran = true
		t, err := experiments.STLTheft()
		if err != nil {
			return err
		}
		emit(t)
	}
	if want("ablation") {
		ran = true
		t, err := experiments.AblationHealing()
		if err != nil {
			return err
		}
		emit(t)
		t2, err := experiments.AblationAmplitude()
		if err != nil {
			return err
		}
		emit(t2)
		t3, err := experiments.AblationMultiSplit()
		if err != nil {
			return err
		}
		emit(t3)
	}
	if !ran {
		return fmt.Errorf("%w %q", errUnknownExperiment, exp)
	}
	return nil
}

// runMatrix manufactures the reference protected bar under every
// processing key, renders the quality matrix, and (with -manifest-out)
// writes one NDJSON provenance line per key — the audit-trail artifact
// CI captures alongside the Chrome trace.
func runMatrix(seed int64, manifestOut string, emit func(*report.Table)) error {
	prot, err := core.NewProtectedBar("bar", false)
	if err != nil {
		return err
	}
	entries, err := core.QualityMatrix(prot, printer.DimensionElite())
	if err != nil {
		return err
	}
	emit(core.MatrixTable(entries))
	if manifestOut != "" {
		f, err := os.Create(manifestOut)
		if err != nil {
			return err
		}
		n, werr := core.WriteManifests(f, entries, seed)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
		fmt.Printf("wrote %d provenance manifests to %s\n\n", n, manifestOut)
	}
	return nil
}
