package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"obfuscade/internal/experiments"
	"obfuscade/internal/report"
)

// paperOpts carries the paper subcommand's flags that the experiments
// read.
type paperOpts struct {
	n    int   // tensile replicates per group
	seed int64 // process noise seed
	csv  bool  // emit tables as CSV
}

// emit writes t to w as an aligned table, or as CSV under -csv.
func (o paperOpts) emit(w io.Writer, t *report.Table) {
	if o.csv {
		fmt.Fprint(w, t.CSV())
	} else {
		fmt.Fprintln(w, t.Render())
	}
}

// paperExperiment regenerates one part of the paper's evaluation.
type paperExperiment struct {
	name string
	run  func(w io.Writer, o paperOpts) error
}

// paperExperiments lists every experiment in the order `-exp all` runs
// them. The -exp help text and the unknown-name error list these names.
var paperExperiments = []paperExperiment{
	{"table1", tables(experiments.Table1)},
	{"table2", func(w io.Writer, o paperOpts) error {
		t, groups, err := experiments.Table2(o.n, o.seed)
		if err != nil {
			return err
		}
		o.emit(w, t)
		if err := experiments.Table2ShapeCheck(groups); err != nil {
			fmt.Fprintf(w, "shape check: FAILED: %v\n\n", err)
		} else {
			fmt.Fprintf(w, "shape check: OK (split parts lose >=50%% failure strain, >=2x toughness)\n\n")
		}
		ext, err := experiments.Table2Extended(o.n, o.seed)
		if err != nil {
			return err
		}
		o.emit(w, ext)
		return nil
	}},
	{"table3", tables(experiments.Table3)},
	{"fig1", tables(experiments.Fig1)},
	{"fig2", func(w io.Writer, o paperOpts) error {
		fmt.Fprintln(w, experiments.Fig2())
		o.emit(w, experiments.RiskMatrix())
		return nil
	}},
	{"fig3", tables(experiments.Fig3)},
	{"fig4", func(w io.Writer, o paperOpts) error {
		series, t, err := experiments.Fig4()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, series.Render())
		o.emit(w, t)
		return nil
	}},
	{"fig5", tables(experiments.Fig5)},
	{"fig6", tables(experiments.Fig6)},
	{"fig7", tables(experiments.Fig7)},
	{"fig8", tables(experiments.Fig8)},
	{"fig9", func(w io.Writer, o paperOpts) error {
		if err := tables(experiments.Fig9)(w, o); err != nil {
			return err
		}
		if o.csv {
			return nil
		}
		field, err := experiments.Fig9Field()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "von Mises field around the split tip ('o' = slit, '@' = peak):")
		fmt.Fprintln(w, field)
		return nil
	}},
	{"fig10", func(w io.Writer, o paperOpts) error {
		if err := tables(experiments.Fig10)(w, o); err != nil {
			return err
		}
		if o.csv {
			return nil
		}
		hollow, dense, err := experiments.Fig10Sections()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Fig. 10c analogue — sphere without material removal, cut open after wash-out:")
		fmt.Fprintln(w, hollow)
		fmt.Fprintln(w, "Fig. 10d analogue — material removal + solid sphere, fully dense:")
		fmt.Fprintln(w, dense)
		return nil
	}},
	{"polyjet", tables(experiments.PolyJetReplication)},
	{"sidechannel", tables(experiments.SideChannelLeakage)},
	{"keyspace", func(w io.Writer, o paperOpts) error {
		t, rep, err := experiments.KeySpace()
		if err != nil {
			return err
		}
		o.emit(w, t)
		fmt.Fprintf(w, "key space: %d keys, %d good; mean print %.2f h; expected brute force %.2f h\n\n",
			rep.TotalKeys, rep.GoodKeys, rep.MeanPrintHours, rep.ExpectedBruteForceHours)
		return nil
	}},
	{"ndt", tables(experiments.NDT)},
	{"servicelife", tables(experiments.ServiceLife)},
	{"stltheft", tables(experiments.STLTheft)},
	{"ablation", tables(experiments.AblationHealing, experiments.AblationAmplitude, experiments.AblationMultiSplit)},
}

// tables returns an experiment that emits the table of each regenerator
// in turn.
func tables(regens ...func() (*report.Table, error)) func(io.Writer, paperOpts) error {
	return func(w io.Writer, o paperOpts) error {
		for _, regen := range regens {
			t, err := regen()
			if err != nil {
				return err
			}
			o.emit(w, t)
		}
		return nil
	}
}

// selectExperiments returns every experiment for "all", else the one
// whose name matches exp regardless of case.
func selectExperiments(exp string) ([]paperExperiment, error) {
	if exp == "all" {
		return paperExperiments, nil
	}
	for _, e := range paperExperiments {
		if strings.EqualFold(e.name, exp) {
			return []paperExperiment{e}, nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q (want %s)", exp, experimentNames())
}

// experimentNames lists the values -exp accepts.
func experimentNames() string {
	names := []string{"all"}
	for _, e := range paperExperiments {
		names = append(names, e.name)
	}
	return strings.Join(names, ", ")
}

// cmdPaper regenerates the paper's tables and figures. An unknown -exp
// name, a debug address that cannot bind and an output file that cannot
// be created all fail before any experiment runs.
func cmdPaper(args []string) (err error) {
	fs := flag.NewFlagSet("paper", flag.ExitOnError)
	exp := fs.String("exp", "all", "experiment to run: "+experimentNames())
	n := fs.Int("n", 5, "tensile replicates per group")
	seed := fs.Int64("seed", 1, "process noise seed")
	csv := fs.Bool("csv", false, "emit tables as CSV")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
	memProfile := fs.String("memprofile", "", "write a pprof allocation profile to this file on exit")
	setWorkers := workersFlag(fs)
	emitStats := statsFlag(fs)
	startDebug, finishDebug := debugFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	selected, err := selectExperiments(*exp)
	if err != nil {
		return err
	}
	setWorkers()
	if err := startDebug(); err != nil {
		return err
	}
	defer emitStats()
	defer keepFirst(&err, finishDebug)
	if *memProfile != "" {
		f, merr := os.Create(*memProfile)
		if merr != nil {
			return merr
		}
		defer keepFirst(&err, func() error {
			// A final GC settles the in-use numbers, so
			// -sample_index=inuse_space reads as well as the cumulative
			// allocation sites.
			runtime.GC()
			return fill(f, func(w io.Writer) error { return pprof.Lookup("allocs").WriteTo(w, 0) })
		})
	}
	if *cpuProfile != "" {
		f, cerr := os.Create(*cpuProfile)
		if cerr != nil {
			return cerr
		}
		if cerr := pprof.StartCPUProfile(f); cerr != nil {
			f.Close()
			return cerr
		}
		defer keepFirst(&err, func() error {
			pprof.StopCPUProfile()
			return f.Close()
		})
	}
	opts := paperOpts{n: *n, seed: *seed, csv: *csv}
	for _, e := range selected {
		if err := e.run(os.Stdout, opts); err != nil {
			return err
		}
	}
	return nil
}
