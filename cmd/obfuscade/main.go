// Command obfuscade is the ObfusCADe protection CLI: it embeds security
// features in CAD models, manufactures them under chosen processing keys,
// evaluates the full quality matrix, authenticates printed parts, and
// regenerates the paper's evaluation.
//
// Subcommands:
//
//	obfuscade protect -out design.ocad -manifest manifest.json [-with-sphere]
//	obfuscade manufacture -in design.ocad -manifest manifest.json
//	                      [-res coarse|fine|custom] [-orient xy|xz] [-restore-sphere]
//	                      [-printer fdm|polyjet] [-stl out.stl] [-gcode out.gcode] [-inspect]
//	obfuscade matrix -in design.ocad -manifest manifest.json [-keyspace] [-workers N]
//	obfuscade paper [-exp all|NAME] [-n replicates] [-seed N] [-csv]
//	                [-cpuprofile file] [-memprofile file] [-workers N]
//	obfuscade advise [-amplitudes 1.0,2.0]
//	obfuscade mark -in part.stl -out marked.stl -key partner-a
//	obfuscade trace -original part.stl -suspect leaked.stl -keys partner-a,partner-b
//	obfuscade stats [-with-sphere] [-format text|json] [-workers N]
//	obfuscade stats -cluster http://router:port [-format text|json]
//	obfuscade serve [-addr host:port] [-cache-bytes N] [-job-timeout D]
//	                [-drain-timeout D] [-manifest-out file] [-access-log file] [-workers N]
//	obfuscade serve -route-to shard1:port,shard2:port,... [-addr host:port]
//	                [-vnodes N] [-hedge-after D] [-probe-interval D] [-access-log file]
//	obfuscade trace-merge -out merged.json [name=]journal.ndjson ...
//	obfuscade sanitize -in part.stl -out clean.stl [-quantum Q] [-report report.json]
//
// paper regenerates the tables and figures of the paper's evaluation:
// -exp all runs every experiment in one fixed order, and -exp NAME one
// of them (-h lists the names). -cpuprofile and -memprofile write pprof
// profiles of the whole run; see EXPERIMENTS.md ("Profiling the
// pipeline"). Performance is measured by the benchmark harness under
// bench/ (bash bench/run.sh), not here.
//
// sanitize destroys the stego channels of a design file (facet-order
// permutation and sub-quantum coordinate offsets): facets are re-ordered
// by a deterministic spatial sort and every coordinate re-quantized to
// the grid, so the output depends only on the geometry and any embedded
// payload is unrecoverable. The detection report scores both channels
// before and after. The serve tier exposes the same operation as POST
// /sanitize, content-addressed and cached like jobs.
//
// serve runs the long-lived obfuscation job service: POST /jobs accepts
// a JSON request (part, resolution, orientation, restore_sphere, seed,
// simulate, timeout_ms), results are content-addressed and cached so a
// repeated identical request is served byte-for-byte from memory, and
// the debug surface (/metrics, /trace, /debug/pprof) shares the same
// port. SIGINT/SIGTERM drains in-flight jobs before exiting and flushes
// provenance manifests to -manifest-out.
//
// With -route-to, serve runs no pipeline of its own: it becomes a
// consistent-hash router over the listed shard instances. Jobs are
// placed by their content-address key, batches are split per shard and
// reassembled in submission order, slow reads are hedged against the
// next ring replica after -hedge-after, and shards failing /healthz
// probes (every -probe-interval) are ejected from routing until they
// recover. 429 shed responses pass through with their Retry-After.
//
// Cluster observability: every routed request carries X-Obfuscade-Trace
// and X-Request-ID across the router→shard boundary, so per-process
// trace journals (/trace.ndjson on each node) stitch into one Chrome
// trace with trace-merge, and -access-log NDJSON lines correlate across
// tiers by request ID. The router federates its shards' metrics at
// /cluster/metrics.json and /cluster/metrics (Prometheus text, shard
// label per series, cluster sums under obfuscade_cluster_) and reports
// ring membership at /cluster/ring; `obfuscade stats -cluster <url>`
// renders the federated view from the command line.
//
// The manufacture, matrix and paper subcommands accept -stats to print
// the per-stage pipeline metrics (package obs) after their output, plus
// -debug-addr to serve the unified debug surface (/metrics Prometheus
// text, /metrics.json, /trace Chrome trace download, /debug/pprof) for
// the duration of the run and -trace-out to write the run's Chrome trace
// JSON on exit. A -debug-addr that cannot bind fails the subcommand
// before any work runs. manufacture and matrix accept -manifest-out to
// write per-key provenance manifests (NDJSON audit lines with key
// settings, STL SHA-256, grade, per-stage wall times). The stats
// subcommand runs a full quality-matrix pass on the reference protected
// bar and emits the metrics snapshot as JSON (-format json, the default)
// or human tables (-format text).
//
// Exit status: 0 on success, 1 when the subcommand fails, 2 on a flag or
// usage error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"

	"obfuscade/internal/brep"
	"obfuscade/internal/core"
	"obfuscade/internal/gcode"
	"obfuscade/internal/mech"
	"obfuscade/internal/obs"
	"obfuscade/internal/parallel"
	"obfuscade/internal/printer"
	"obfuscade/internal/stl"
	"obfuscade/internal/tessellate"
	"obfuscade/internal/trace"
	"obfuscade/internal/voxel"
	"obfuscade/internal/watermark"
)

// workersFlag registers the shared -workers flag. Call the returned
// function after fs.Parse to install the requested pool size process-wide.
func workersFlag(fs *flag.FlagSet) func() {
	n := fs.Int("workers", 0, "worker pool size for parallel stages (0 = all CPUs)")
	return func() { parallel.SetDefault(*n) }
}

// statsFlag registers the shared -stats flag. Call the returned function
// after the subcommand's work to print the pipeline metrics it asked for.
func statsFlag(fs *flag.FlagSet) func() {
	s := fs.Bool("stats", false, "print per-stage pipeline metrics after the run")
	return func() {
		if *s {
			obs.Default().Snapshot().WriteText(os.Stdout)
		}
	}
}

// debugFlags registers the shared -debug-addr and -trace-out flags.
// start binds the debug server and creates the trace file synchronously,
// so a bad address or an unwritable path fails the subcommand before
// any work runs; finish fills the trace file and stops the server.
// Subcommands defer keepFirst(&err, finish), so a trace that cannot be
// written fails the run.
func debugFlags(fs *flag.FlagSet) (start, finish func() error) {
	addr := fs.String("debug-addr", "", "serve /metrics, /metrics.json, /trace and /debug/pprof on this address")
	traceOut := fs.String("trace-out", "", "write the run's Chrome trace JSON to this file on exit")
	var srv *trace.DebugServer
	var out *os.File
	start = func() (err error) {
		if *traceOut != "" {
			if out, err = os.Create(*traceOut); err != nil {
				return err
			}
		}
		if *addr != "" {
			if srv, err = trace.StartDebugServer(*addr, obs.Default(), trace.Default()); err != nil {
				return err
			}
			fmt.Fprintln(os.Stderr, "obfuscade: debug server on", srv.URL())
		}
		return nil
	}
	finish = func() error {
		if srv != nil {
			defer srv.Close()
		}
		if out == nil {
			return nil
		}
		return fill(out, trace.Default().WriteChrome)
	}
	return start, finish
}

// keepFirst calls f and stores its error in *err unless *err already
// holds one. Deferred, it reports a failure to finish an output file
// that the subcommand's own result would otherwise drop.
func keepFirst(err *error, f func() error) {
	if ferr := f(); *err == nil {
		*err = ferr
	}
}

// fill writes f with write and closes it, returning the first error of
// the write or the close.
func fill(f *os.File, write func(io.Writer) error) error {
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "protect":
		err = cmdProtect(os.Args[2:])
	case "manufacture":
		err = cmdManufacture(os.Args[2:])
	case "matrix":
		err = cmdMatrix(os.Args[2:])
	case "paper":
		err = cmdPaper(os.Args[2:])
	case "advise":
		err = cmdAdvise(os.Args[2:])
	case "mark":
		err = cmdMark(os.Args[2:])
	case "trace":
		err = cmdTrace(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "trace-merge":
		err = cmdTraceMerge(os.Args[2:])
	case "sanitize":
		err = cmdSanitize(os.Args[2:])
	case "help", "-h", "--help":
		usage()
		return
	default:
		usage()
		err = fmt.Errorf("unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "obfuscade:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: obfuscade <protect|manufacture|matrix|paper|advise|mark|trace|stats|serve|trace-merge|sanitize> [flags]
run "obfuscade <subcommand> -h" for flags`)
}

// manifestFile is the on-disk JSON form of the secret manifest.
type manifestFile struct {
	PartName      string               `json:"part_name"`
	Features      []core.FeatureRecord `json:"features"`
	KeyResolution string               `json:"key_resolution"`
	KeyOrient     string               `json:"key_orientation"`
	RestoreSphere bool                 `json:"restore_sphere"`
	CADDigest     string               `json:"cad_digest"`
}

func saveManifest(path string, m core.Manifest) error {
	mf := manifestFile{
		PartName:      m.PartName,
		Features:      m.Features,
		KeyResolution: m.Key.Resolution.Name,
		KeyOrient:     m.Key.Orientation.String(),
		RestoreSphere: m.Key.RestoreSphere,
		CADDigest:     m.CADDigest,
	}
	data, err := json.MarshalIndent(mf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o600)
}

func loadManifest(path string) (core.Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return core.Manifest{}, err
	}
	var mf manifestFile
	if err := json.Unmarshal(data, &mf); err != nil {
		return core.Manifest{}, err
	}
	res, err := tessellate.ByName(mf.KeyResolution)
	if err != nil {
		return core.Manifest{}, err
	}
	o, err := mech.ParseOrientation(mf.KeyOrient)
	if err != nil {
		return core.Manifest{}, err
	}
	return core.Manifest{
		PartName:  mf.PartName,
		Features:  mf.Features,
		Key:       core.Key{Resolution: res, Orientation: o, RestoreSphere: mf.RestoreSphere},
		CADDigest: mf.CADDigest,
	}, nil
}

func loadProtected(cadPath, manPath string) (*core.Protected, error) {
	data, err := os.ReadFile(cadPath)
	if err != nil {
		return nil, err
	}
	part, err := brep.Load(data)
	if err != nil {
		return nil, err
	}
	man, err := loadManifest(manPath)
	if err != nil {
		return nil, err
	}
	prot := &core.Protected{Part: part, Manifest: man}
	if err := core.VerifyDistribution(prot, data); err != nil {
		return nil, err
	}
	return prot, nil
}

func cmdProtect(args []string) error {
	fs := flag.NewFlagSet("protect", flag.ExitOnError)
	out := fs.String("out", "design.ocad", "output protected CAD file")
	manOut := fs.String("manifest", "manifest.json", "output secret manifest")
	withSphere := fs.Bool("with-sphere", false, "also embed the sphere feature")
	if err := fs.Parse(args); err != nil {
		return err
	}
	prot, err := core.NewProtectedBar("protected-bar", *withSphere)
	if err != nil {
		return err
	}
	data, err := brep.Save(prot.Part)
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	if err := saveManifest(*manOut, prot.Manifest); err != nil {
		return err
	}
	fmt.Printf("protected design written to %s (%d bytes)\n", *out, len(data))
	fmt.Printf("secret manifest written to %s\n", *manOut)
	fmt.Printf("correct key: %v\n", prot.Manifest.Key)
	return nil
}

func cmdManufacture(args []string) (err error) {
	fs := flag.NewFlagSet("manufacture", flag.ExitOnError)
	in := fs.String("in", "design.ocad", "protected CAD file")
	man := fs.String("manifest", "manifest.json", "manifest file")
	resName := fs.String("res", "coarse", "STL resolution")
	orient := fs.String("orient", "xy", "print orientation (xy, xz)")
	printerName := fs.String("printer", "fdm", "printer profile: fdm (Dimension Elite) or polyjet (Objet30 Pro)")
	restore := fs.Bool("restore-sphere", false, "apply the secret CAD operation")
	authenticate := fs.Bool("authenticate", true, "authenticate the printed part")
	manifestOut := fs.String("manifest-out", "", "write this run's provenance manifest (NDJSON) to this file")
	stlOut := fs.String("stl", "", "write the exported binary STL to this file")
	gcodeOut := fs.String("gcode", "", "write the generated G-code to this file")
	inspect := fs.Bool("inspect", false, "render a cut-open mid section of the printed part")
	setWorkers := workersFlag(fs)
	emitStats := statsFlag(fs)
	startDebug, finishDebug := debugFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	setWorkers()
	if err := startDebug(); err != nil {
		return err
	}
	defer emitStats()
	defer keepFirst(&err, finishDebug)
	prot, err := loadProtected(*in, *man)
	if err != nil {
		return err
	}
	res, err := tessellate.ByName(*resName)
	if err != nil {
		return err
	}
	o, err := mech.ParseOrientation(*orient)
	if err != nil {
		return err
	}
	var prof printer.Profile
	switch *printerName {
	case "fdm":
		prof = printer.DimensionElite()
	case "polyjet":
		prof = printer.Objet30Pro()
	default:
		return fmt.Errorf("unknown printer %q (want fdm or polyjet)", *printerName)
	}
	key := core.Key{Resolution: res, Orientation: o, RestoreSphere: *restore}
	result, err := core.ManufactureMemoCtx(context.Background(), prot, key, prof, nil)
	if err != nil {
		return err
	}
	fmt.Printf("manufactured under key %v on %s\n", key, prof.Name)
	fmt.Printf("grade: %s\n", result.Quality.Grade)
	for _, n := range result.Quality.Notes {
		fmt.Printf("  - %s\n", n)
	}
	if *stlOut != "" {
		if err := os.WriteFile(*stlOut, result.Run.STLBytes, 0o644); err != nil {
			return err
		}
		fmt.Printf("STL written to %s\n", *stlOut)
	}
	if *gcodeOut != "" {
		data, err := gcode.Marshal(result.Run.GCode)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*gcodeOut, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("G-code written to %s\n", *gcodeOut)
	}
	if *inspect {
		g := result.Run.Build.Grid
		section, err := g.SectionASCII(voxel.AxisY, g.NY/2, 100)
		if err != nil {
			return err
		}
		fmt.Printf("cut-open mid section (x-z plane at y midplane; '#' model, 's' support):\n%s", section)
	}
	if *manifestOut != "" {
		prov := core.NewProvenance(result, nil, 0)
		data, err := json.Marshal(prov)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*manifestOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("provenance manifest written to %s\n", *manifestOut)
	}
	if *authenticate {
		rep := core.Authenticate(result.Run.Build, &prot.Manifest)
		fmt.Printf("authentication verdict: %s\n", rep.Verdict)
		for _, n := range rep.Notes {
			fmt.Printf("  - %s\n", n)
		}
	}
	return nil
}

func cmdMatrix(args []string) (err error) {
	fs := flag.NewFlagSet("matrix", flag.ExitOnError)
	in := fs.String("in", "design.ocad", "protected CAD file")
	man := fs.String("manifest", "manifest.json", "manifest file")
	keyspace := fs.Bool("keyspace", false, "also print the key-space analysis from the same manufacture pass")
	manifestOut := fs.String("manifest-out", "", "write per-key provenance manifests (NDJSON) to this file")
	setWorkers := workersFlag(fs)
	emitStats := statsFlag(fs)
	startDebug, finishDebug := debugFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	setWorkers()
	if err := startDebug(); err != nil {
		return err
	}
	defer emitStats()
	defer keepFirst(&err, finishDebug)
	prot, err := loadProtected(*in, *man)
	if err != nil {
		return err
	}
	entries, err := core.QualityMatrixWorkers(prot, printer.DimensionElite(), 0)
	// A partial matrix is still worth showing: render whatever completed
	// before reporting the aggregated per-key error.
	if len(entries) > 0 {
		fmt.Println(core.MatrixTable(entries).Render())
		good := core.GoodKeys(entries)
		fmt.Printf("%d of %d keys manufacture a good part:\n", len(good), len(entries))
		for _, k := range good {
			fmt.Printf("  %v\n", k)
		}
		if *keyspace {
			printKeySpace(core.KeySpaceFromEntries(entries))
		}
		if *manifestOut != "" {
			f, werr := os.Create(*manifestOut)
			if werr != nil {
				return werr
			}
			var n int
			if werr := fill(f, func(w io.Writer) (err error) {
				n, err = core.WriteManifests(w, entries, 0)
				return err
			}); werr != nil {
				return werr
			}
			fmt.Printf("wrote %d provenance manifests to %s\n", n, *manifestOut)
		}
	}
	return err
}

func printKeySpace(rep core.KeySpaceReport) {
	fmt.Printf("key space size:           %d\n", rep.TotalKeys)
	fmt.Printf("good keys:                %d\n", rep.GoodKeys)
	if rep.FailedKeys > 0 {
		fmt.Printf("failed keys:              %d\n", rep.FailedKeys)
	}
	fmt.Printf("mean print time:          %.2f h\n", rep.MeanPrintHours)
	fmt.Printf("expected brute-force:     %.2f h of printing + testing\n", rep.ExpectedBruteForceHours)
}

// cmdStats runs a full quality-matrix pass on the reference protected bar
// and emits the pipeline metrics snapshot — JSON by default (the
// machine-readable form consumed by dashboards and the determinism tests),
// or the human tables of -stats with -format text. With -cluster it runs
// nothing locally: it asks a router's /cluster/metrics.json for the
// federated view and renders per-shard plus cluster-wide metrics.
func cmdStats(args []string) (err error) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	withSphere := fs.Bool("with-sphere", false, "embed the sphere feature too (doubles the key space)")
	format := fs.String("format", "json", "output format: text (human tables) or json (machine-readable snapshot)")
	cluster := fs.String("cluster", "", "render the federated metrics of the router at this base URL instead of running locally")
	setWorkers := workersFlag(fs)
	startDebug, finishDebug := debugFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	setWorkers()
	if *format != "text" && *format != "json" {
		return fmt.Errorf("stats: unknown -format %q (want text or json)", *format)
	}
	if *cluster != "" {
		return clusterStats(*cluster, *format)
	}
	if err := startDebug(); err != nil {
		return err
	}
	defer keepFirst(&err, finishDebug)
	obs.Default().Reset()
	prot, err := core.NewProtectedBar("stats-bar", *withSphere)
	if err != nil {
		return err
	}
	if _, err := core.QualityMatrixWorkers(prot, printer.DimensionElite(), 0); err != nil {
		return err
	}
	snap := obs.Default().Snapshot()
	if *format == "text" {
		snap.WriteText(os.Stdout)
		return nil
	}
	data, err := snap.JSON()
	if err != nil {
		return err
	}
	os.Stdout.Write(data)
	fmt.Println()
	return nil
}

// clusterStats fetches a router's federated metrics and renders them.
// JSON passes the router's body through verbatim; text renders each
// shard's counter table followed by the cluster-wide view, flagging a
// stale (partial) scrape loudly.
func clusterStats(baseURL, format string) error {
	url := strings.TrimRight(baseURL, "/") + "/cluster/metrics.json"
	resp, err := http.Get(url)
	if err != nil {
		return fmt.Errorf("stats: scraping %s: %w", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stats: %s answered %d: %s", url, resp.StatusCode, body)
	}
	if format == "json" {
		os.Stdout.Write(body)
		fmt.Println()
		return nil
	}
	var view struct {
		Cluster obs.Snapshot            `json:"cluster"`
		Shards  map[string]obs.Snapshot `json:"shards"`
		Errors  map[string]string       `json:"errors"`
		Stale   bool                    `json:"stale"`
	}
	if err := json.Unmarshal(body, &view); err != nil {
		return fmt.Errorf("stats: decoding federated view: %w", err)
	}
	addrs := make([]string, 0, len(view.Shards))
	for addr := range view.Shards {
		addrs = append(addrs, addr)
	}
	sort.Strings(addrs)
	for _, addr := range addrs {
		fmt.Printf("== shard %s ==\n", addr)
		view.Shards[addr].WriteText(os.Stdout)
	}
	fmt.Printf("== cluster (%d shards) ==\n", len(view.Shards))
	view.Cluster.WriteText(os.Stdout)
	if view.Stale {
		fmt.Printf("WARNING: partial scrape, sums undercount the cluster:\n")
		for addr, msg := range view.Errors {
			fmt.Printf("  %s: %s\n", addr, msg)
		}
	}
	return nil
}

func cmdAdvise(args []string) error {
	fs := flag.NewFlagSet("advise", flag.ExitOnError)
	amps := fs.String("amplitudes", "1.0,1.5,2.0,2.5", "comma-separated candidate amplitudes (mm)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var candidates []float64
	for _, tok := range strings.Split(*amps, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil {
			return fmt.Errorf("bad amplitude %q: %w", tok, err)
		}
		candidates = append(candidates, v)
	}
	advice, best, err := core.AdviseSplit(brep.DefaultTensileBar(), candidates, printer.DimensionElite())
	if err != nil {
		return err
	}
	fmt.Printf("%-10s %-9s %-9s %-10s %-9s %-10s %s\n",
		"amplitude", "arc/width", "genuine", "gen-bond", "wrong", "sab-bond", "STL overhead")
	for i, a := range advice {
		mark := ""
		if i == best {
			mark = "  <-- recommended"
		}
		fmt.Printf("%-10.2f %-9.2f %-9s %-10.2f %-9s %-10.2f %.0f%%%s\n",
			a.Amplitude, a.ArcRatio, a.GenuineGrade, a.GenuineBond,
			a.WrongKeyGrade, a.SabotageBond, 100*a.STLOverhead, mark)
	}
	if best < 0 {
		return fmt.Errorf("no candidate satisfies the genuine-good / wrong-defective constraint")
	}
	return nil
}

func cmdMark(args []string) error {
	fs := flag.NewFlagSet("mark", flag.ExitOnError)
	in := fs.String("in", "", "input STL file")
	out := fs.String("out", "", "output marked STL file")
	key := fs.String("key", "", "watermark key (e.g. the partner name)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" || *key == "" {
		return fmt.Errorf("mark requires -in, -out and -key")
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	m, err := stl.Unmarshal(data)
	if err != nil {
		return err
	}
	n, err := watermark.Embed(m, []byte(*key), watermark.DefaultAmplitude)
	if err != nil {
		return err
	}
	marked, err := stl.Marshal(m, stl.Binary, "marked")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, marked, 0o644); err != nil {
		return err
	}
	fmt.Printf("marked %d vertices; wrote %s (%d bytes)\n", n, *out, len(marked))
	return nil
}

func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	original := fs.String("original", "", "the owner's unmarked STL")
	suspect := fs.String("suspect", "", "the leaked STL to analyse")
	keys := fs.String("keys", "", "comma-separated candidate keys")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *original == "" || *suspect == "" || *keys == "" {
		return fmt.Errorf("trace requires -original, -suspect and -keys")
	}
	origData, err := os.ReadFile(*original)
	if err != nil {
		return err
	}
	origMesh, err := stl.Unmarshal(origData)
	if err != nil {
		return err
	}
	susData, err := os.ReadFile(*suspect)
	if err != nil {
		return err
	}
	susMesh, err := stl.Unmarshal(susData)
	if err != nil {
		return err
	}
	found := false
	for _, key := range strings.Split(*keys, ",") {
		key = strings.TrimSpace(key)
		res, err := watermark.Detect(origMesh, susMesh, []byte(key), watermark.DefaultAmplitude)
		if err != nil {
			return err
		}
		verdict := ""
		if res.Present() {
			verdict = "  <-- LEAK SOURCE"
			found = true
		}
		fmt.Printf("%-20s correlation %5.2f (matched %d/%d)%s\n",
			key, res.Score, res.Matched, res.Total, verdict)
	}
	if !found {
		fmt.Println("no candidate key matches; the copy is unmarked or from an unknown source")
	}
	return nil
}
