// Command bench is the repository's benchmark. It drives four seeded
// workloads against the obfuscation pipeline and its sharded serving tier,
// checks their outputs, and prints each run's metrics by name and unit.
//
// Run it from the repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh --workload matrix --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh                      # every workload, untraced and traced
//	bash bench/run.sh compare <dirA> <dirB>
//
// The last line a single-workload run prints is one JSON object with the
// keys correct, attempted, failed and metrics: the end-to-end metrics when
// --trace is 0, the per-layer metrics when it is 1. bench/README.md
// describes the workloads and every metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"obfuscade/internal/printer"
	"obfuscade/internal/trace"
)

// workloadNames lists the workloads in the order a full run takes them.
var workloadNames = []string{"matrix", "jobs-cold", "jobs-hot", "sanitize"}

// newWorkload returns the named workload.
func newWorkload(name string) workload {
	switch name {
	case "matrix":
		return &matrixWorkload{}
	case "jobs-cold":
		return &coldWorkload{}
	case "jobs-hot":
		return &hotWorkload{}
	case "sanitize":
		return &sanitizeWorkload{}
	}
	return nil
}

// A workload is one traffic mix. runWorkload drives every workload through
// the same protocol: set up, measure, verify outputs, report.
type workload interface {
	// setup readies the system under test. It repeats its set-up and
	// returns each repetition's duration, so set-up time is reported as a
	// median.
	setup(e *env) ([]float64, error)
	// measure runs one timed phase of length d. full is false in traced
	// runs, which measure twice (without and with harness spans) and skip
	// work only an end-to-end metric needs.
	measure(e *env, sp spans, d time.Duration, full bool) (*phaseStats, error)
	// verify runs the output checks that wait for the timed phase to end
	// and returns the failures.
	verify(e *env) []string
	// pids are the /proc entries of the processes the system under test
	// runs in, whose peak resident memory is reported.
	pids() []string
	// cluster is the running router and shards, nil for in-process work.
	cluster() *cluster
	// close stops whatever setup started.
	close()
}

// phaseStats is what one timed phase measured.
type phaseStats struct {
	ops    int       // operations attempted
	failed []string  // failed operations and output checks, described
	lat    []float64 // per-operation latency, ms, ascending
	// tailTarget caps the tail percentile reported for this workload.
	tailTarget float64
	throughput float64 // operations per second
	allocMB    float64 // MB the system under test allocated during the phase
	meta       map[string]any
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	quick    bool
	out      string
}

// env is what one run of one workload works with.
type env struct {
	ctx   context.Context
	cfg   config
	root  string // repository root
	tmp   string // scratch directory of this run, removed when it ends
	bin   string // obfuscade binary
	nproc int
	prof  printer.Profile
}

// matrixParts are the protected parts whose quality matrices the matrix
// workload and the traced replay compute: all four, or only the first with
// -quick.
func (e *env) matrixParts() []string {
	if e.cfg.quick {
		return partNames[:1]
	}
	return partNames
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's report. The results file holds all of it; the last
// stdout line holds correct, attempted, failed and metrics.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     int               `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Meta      map[string]any    `json:"meta"`
	Failures  []string          `json:"failures,omitempty"`
}

// spans records the harness's own spans around calls into the system in
// traced runs. Its zero value records nothing.
type spans struct{ rec *trace.Recorder }

func (s spans) start(ctx context.Context, name string, args ...trace.Arg) (context.Context, *trace.Span) {
	if s.rec == nil {
		return ctx, nil
	}
	return s.rec.StartSpan(ctx, "bench", name, args...)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:]))
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	cfg := config{}
	fs.StringVar(&cfg.workload, "workload", "all", "workload to run: all, "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.IntVar(&cfg.seconds, "seconds", 15, "length of the timed phase in seconds")
	traced := fs.Int("trace", 0, "1 runs the traced run: per-layer metrics instead of end-to-end ones")
	fs.BoolVar(&cfg.quick, "quick", false, "small inputs and short phases, for tests")
	fs.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "results"), "directory for result and trace files")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if cfg.workload != "all" && !slices.Contains(workloadNames, cfg.workload) {
		return cfg, fmt.Errorf("unknown workload %q (want all, %s)", cfg.workload, strings.Join(workloadNames, ", "))
	}
	if *traced != 0 && *traced != 1 {
		return cfg, fmt.Errorf("-trace must be 0 or 1, got %d", *traced)
	}
	cfg.trace = *traced == 1
	if cfg.seconds < 1 {
		return cfg, fmt.Errorf("-seconds must be at least 1, got %d", cfg.seconds)
	}
	return cfg, nil
}

func runMain(args []string) int {
	cfg, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if cfg.workload == "all" {
		return runAll(ctx, cfg, os.Stdout)
	}
	res, err := runWorkload(ctx, root, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if err := writeResult(root, cfg, res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	printResult(os.Stdout, res)
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload untraced and then traced, each in its own
// process so no run's memory high-water mark or caches leak into the next.
func runAll(ctx context.Context, cfg config, w io.Writer) int {
	code := 0
	for _, name := range workloadNames {
		for _, traced := range []string{"0", "1"} {
			args := []string{"--workload", name, "--seed", fmt.Sprint(cfg.seed),
				"--seconds", fmt.Sprint(cfg.seconds), "--trace", traced, "--out", cfg.out}
			if cfg.quick {
				args = append(args, "--quick")
			}
			fmt.Fprintf(w, "== %s trace=%s\n", name, traced)
			cmd := exec.CommandContext(ctx, os.Args[0], args...)
			// On an interrupt the child stops its servers and removes its
			// scratch directory itself.
			cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
			cmd.Stdout = w
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s trace=%s: %v\n", name, traced, err)
				code = 1
			}
			if ctx.Err() != nil {
				return 1
			}
		}
	}
	return code
}

// findRoot returns the repository root: the working directory or the
// nearest parent holding cmd/obfuscade.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if st, err := os.Stat(filepath.Join(dir, "cmd", "obfuscade")); err == nil && st.IsDir() {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no repository root (a directory holding cmd/obfuscade) above the working directory")
		}
		dir = parent
	}
}

// setupRepeats is how many times a run repeats its set-up, so setup_s is a
// median; -quick sets up once. The jobs-hot warm pass and the sanitize
// bodies are made once, outside it.
func (e *env) setupRepeats() int {
	if e.cfg.quick {
		return 1
	}
	return 5
}

// runWorkload runs one workload once. An error means the run could not be
// made (a build or start-up failure); failed output checks come back in
// the result.
func runWorkload(ctx context.Context, root string, cfg config) (*result, error) {
	build := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	e := &env{ctx: ctx, cfg: cfg, root: root, tmp: tmp, nproc: runtime.NumCPU(), prof: printer.DimensionElite()}
	w := newWorkload(cfg.workload)
	if cfg.workload != "matrix" || cfg.trace {
		if e.bin, err = buildObfuscade(ctx, root, tmp); err != nil {
			return nil, err
		}
	}
	defer w.close()
	setups, err := w.setup(e)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
	}
	res := &result{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Metrics: map[string]metric{},
		Meta: map[string]any{
			"nproc": e.nproc, "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(), "seed": cfg.seed,
			"setup_runs_s": setups,
		},
	}
	d := time.Duration(cfg.seconds) * time.Second
	// Writeback of what set-up and earlier runs wrote is not part of the
	// timed phase.
	syscall.Sync()
	if !cfg.trace {
		ps, rss, err := measureSampled(e, w, d)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.workload, err)
		}
		res.absorb(ps, w.verify(e))
		res.endToEnd(ps, setups, rss)
		return res, nil
	}
	res.Trace = 1
	if err := tracedRun(e, w, d, res); err != nil {
		return nil, fmt.Errorf("%s traced run: %w", cfg.workload, err)
	}
	return res, nil
}

// measureSampled runs an untraced timed phase while sampling the peak
// memory of the system under test in windows.
func measureSampled(e *env, w workload, d time.Duration) (*phaseStats, []float64, error) {
	stop := make(chan struct{})
	done := make(chan struct{})
	var rss []float64
	var rssErr error
	go func() {
		defer close(done)
		rss, rssErr = peakRSSWindows(w.pids(), stop)
	}()
	ps, err := w.measure(e, spans{}, d, true)
	close(stop)
	<-done
	if err == nil {
		err = rssErr
	}
	return ps, rss, err
}

// absorb folds a phase's counts and failures into the result.
func (r *result) absorb(ps *phaseStats, checks []string) {
	r.Attempted += ps.ops
	r.Failures = append(r.Failures, ps.failed...)
	r.Failures = append(r.Failures, checks...)
	r.Failed = len(r.Failures)
	r.Correct = r.Failed == 0
	for k, v := range ps.meta {
		r.Meta[k] = v
	}
	if r.Attempted > 0 {
		r.Meta["fail_ratio"] = float64(r.Failed) / float64(r.Attempted)
	}
	if len(r.Failures) > 8 {
		r.Failures = append(r.Failures[:8:8], fmt.Sprintf("... and %d more", r.Failed-8))
	}
}

// endToEnd fills in the end-to-end metrics of an untraced run from its
// timed phase, its set-up durations and its windowed peak memory.
func (r *result) endToEnd(ps *phaseStats, setups, rss []float64) {
	tail, ok := tailOf(ps.lat, ps.tailTarget)
	r.Meta["tail"] = tail
	if !ok {
		r.Meta["tail_warning"] = fmt.Sprintf("only %d samples; tail_ms is the median", len(ps.lat))
	}
	r.set("setup_s", median(setups))
	r.set("throughput", ps.throughput)
	r.set("p50_ms", percentile(ps.lat, 50))
	r.set("tail_ms", tail.Value)
	r.set("peak_rss_mb", median(rss))
	r.Meta["peak_rss_windows_mb"] = rss
	r.set("alloc_mb_per_op", ps.allocMB/float64(max(ps.ops, 1)))
}

// set records a metric under its declared unit.
func (r *result) set(name string, v float64) {
	unit, ok := e2eUnits[name]
	if !ok {
		unit = layerUnits[name]
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// e2eUnits are the end-to-end metrics every untraced run reports.
var e2eUnits = map[string]string{
	"setup_s":         "s",
	"throughput":      "1/s",
	"p50_ms":          "ms",
	"tail_ms":         "ms",
	"peak_rss_mb":     "MB",
	"alloc_mb_per_op": "MB",
}

func resultPath(root string, cfg config, res *result) string {
	out := cfg.out
	if !filepath.IsAbs(out) {
		out = filepath.Join(root, out)
	}
	return filepath.Join(out, fmt.Sprintf("bench-results-%s-seed%d-trace%d.json", res.Workload, res.Seed, res.Trace))
}

func writeResult(root string, cfg config, res *result) error {
	path := resultPath(root, cfg, res)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printResult prints every metric by name with its unit, then the result
// line.
func printResult(w io.Writer, res *result) {
	names := sortedKeys(res.Metrics)
	fmt.Fprintf(w, "%s seed=%d trace=%d attempted=%d failed=%d\n", res.Workload, res.Seed, res.Trace, res.Attempted, res.Failed)
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	if t, ok := res.Meta["tail"].(tailStat); ok {
		fmt.Fprintf(w, "  tail_ms is p%g with %d of %d samples beyond it\n", t.P, t.Beyond, t.N)
	}
	for _, f := range res.Failures {
		fmt.Fprintln(w, "  FAILED:", f)
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	fmt.Fprintln(w, string(line))
}
