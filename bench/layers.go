package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"obfuscade/internal/brep"
	"obfuscade/internal/cache"
	"obfuscade/internal/cache/diskstore"
	"obfuscade/internal/core"
	"obfuscade/internal/gcode"
	"obfuscade/internal/geom"
	"obfuscade/internal/mech"
	"obfuscade/internal/memo"
	"obfuscade/internal/mesh"
	"obfuscade/internal/obs"
	"obfuscade/internal/parallel"
	"obfuscade/internal/printer"
	"obfuscade/internal/serve"
	"obfuscade/internal/shard"
	"obfuscade/internal/slicer"
	"obfuscade/internal/stego"
	"obfuscade/internal/stl"
	"obfuscade/internal/supplychain"
	"obfuscade/internal/tessellate"
	"obfuscade/internal/trace"
)

// replayStages are the pipeline calls the serial matrix replay times, in
// pipeline order. Each is reported as <stage>_ms (p50 per call) and
// <stage>_total_ms (sum over the replay).
var replayStages = []string{
	"core.applykey", "brep.save", "tessellate.build", "stl.marshal",
	"slicer.index", "slicer.slice", "slicer.toolpath", "gcode.generate",
	"printer.print", "gcode.simulate", "core.grade",
}

// layerUnits are the per-layer metrics every traced run reports.
var layerUnits = func() map[string]string {
	u := map[string]string{
		"slicer.layers_per_s":    "1/s",
		"memo.reuse_ratio":       "ratio",
		"parallel.idle_share":    "ratio",
		"parallel.efficiency":    "ratio",
		"matrix.residual_share":  "ratio",
		"matrix.replay_wall_ms":  "ms",
		"matrix.pool_round_ms":   "ms",
		"core.runjob_ms":         "ms",
		"cold.routed_ms":         "ms",
		"cold.pipeline_share":    "ratio",
		"hot.routed_us":          "us",
		"hot.direct_us":          "us",
		"shard.hop_us":           "us",
		"serve.http_us":          "us",
		"cache.hit_us":           "us",
		"diskstore.get_us":       "us",
		"diskstore.put_ms":       "ms",
		"cache.hit_ratio":        "ratio",
		"cache.disk_hit_ratio":   "ratio",
		"cache.coalesced_ratio":  "ratio",
		"serve.shed_ratio":       "ratio",
		"shard.hedge_ratio":      "ratio",
		"serve.sanitize_key_us":  "us",
		"stl.unmarshal_ms":       "ms",
		"stego.sanitize_ms":      "ms",
		"stego.flag_ratio":       "ratio",
		"stego.clean_flag_ratio": "ratio",
		"gen.lag_p99_ms":         "ms",
		"trace.overhead_share":   "ratio",
	}
	for _, s := range replayStages {
		u[s+"_ms"] = "ms"
		u[s+"_total_ms"] = "ms"
	}
	return u
}()

// tracedRun is a run with --trace 1. It measures the workload twice, for
// half of d each, first without and then with harness spans (their
// difference is the tracing overhead), then splits the work across the
// repository's modules by timing calls into each module's public functions
// from the harness, and writes the spans as a Chrome trace.
func tracedRun(e *env, w workload, d time.Duration, res *result) error {
	rec := trace.New(1 << 16)
	sp := spans{rec: rec}
	cl := w.cluster()
	if cl == nil {
		// The in-process matrix has no cluster; the request-path probes
		// need one.
		var err error
		if cl, err = startCluster(e.ctx, e.bin, filepath.Join(e.tmp, "probe-cluster"), coldShards, nil); err != nil {
			return err
		}
		defer cl.stop()
	}
	sph, err := beginServerPhase(e.ctx, cl)
	if err != nil {
		return err
	}
	half := d / 2
	plain, err := w.measure(e, spans{}, half, false)
	if err != nil {
		return err
	}
	traced, err := w.measure(e, sp, half, false)
	if err != nil {
		return err
	}
	res.absorb(plain, nil)
	res.absorb(traced, w.verify(e))
	p0, p1 := percentile(plain.lat, 50), percentile(traced.lat, 50)
	res.set("trace.overhead_share", (p1-p0)/p0)

	var fails []string
	a := &attribution{e: e, sp: sp, res: res, cl: cl, samples: map[string][]float64{}}
	fails = append(fails, a.matrix()...)
	fails = append(fails, a.jobs()...)
	fails = append(fails, a.requestPath()...)
	sanFails, err := a.diskAndSanitize(w)
	if err != nil {
		return err
	}
	fails = append(fails, sanFails...)
	res.Failures = append(res.Failures, fails...)
	res.Failed += len(fails)
	res.Attempted += a.ops
	res.Correct = res.Failed == 0

	_, delta, err := sph.end(e.ctx)
	if err != nil {
		return err
	}
	lookups := delta["cache.hits"] + delta["cache.misses"] + delta["cache.coalesced"] + delta["cache.disk.hits"]
	res.set("cache.hit_ratio", ratio(delta["cache.hits"], lookups))
	res.set("cache.disk_hit_ratio", ratio(delta["cache.disk.hits"], lookups))
	res.set("cache.coalesced_ratio", ratio(delta["cache.coalesced"], lookups))
	res.set("serve.shed_ratio", ratio(delta["serve.shed"], delta["router.requests"]))
	res.set("shard.hedge_ratio", ratio(delta["router.hedge.fired"], delta["router.requests"]))
	res.Meta["run_counters"] = delta
	res.Meta["trace_events_dropped"] = rec.Dropped()

	for name := range layerUnits {
		if _, ok := res.Metrics[name]; !ok {
			return fmt.Errorf("per-layer metric %s was not measured", name)
		}
	}
	return writeTrace(e, res, rec)
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func writeTrace(e *env, res *result, rec *trace.Recorder) error {
	path := filepath.Join(filepath.Dir(resultPath(e.root, e.cfg, res)),
		fmt.Sprintf("bench-trace-%s-seed%d.json", res.Workload, res.Seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	res.Meta["trace_file"] = path
	return f.Close()
}

// attribution times calls into each module and records the samples.
type attribution struct {
	e       *env
	sp      spans
	res     *result
	cl      *cluster
	ops     int
	samples map[string][]float64 // ms per call, by stage
}

// do runs fn inside a harness span and returns its duration.
func (a *attribution) do(ctx context.Context, name string, fn func() error) (time.Duration, error) {
	_, s := a.sp.start(ctx, name)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	s.End()
	return d, err
}

// stage runs fn as one call of a replay stage.
func (a *attribution) stage(ctx context.Context, name string, fn func() error) error {
	d, err := a.do(ctx, name, fn)
	a.samples[name] = append(a.samples[name], ms(d))
	return err
}

func sum(vs []float64) float64 {
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s
}

func p50(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	return percentile(s, 50)
}

// matrix replays one matrix round twice: once on the worker pool exactly as
// core.QualityMatrixWorkers runs it (for memo reuse, pool idle time and
// parallel efficiency), once serially stage by stage (for per-stage times
// and the residual). Both must reproduce each other's digests and grades.
func (a *attribution) matrix() []string {
	e := a.e
	ctx := e.ctx
	var fails []string
	prots := map[string]*core.Protected{}
	for _, p := range e.matrixParts() {
		prot, err := core.BuildProtected(p)
		if err != nil {
			return []string{err.Error()}
		}
		prots[p] = prot
	}

	before := obs.Default().Snapshot()
	var poolWall, busy time.Duration
	workers := 0
	pool := map[string][]keyOutcome{}
	for _, p := range e.matrixParts() {
		prot := prots[p]
		keys := core.AllKeys(prot)
		out := make([]keyOutcome, len(keys))
		busyPer := make([]time.Duration, len(keys))
		mm := memo.New(0)
		t0 := time.Now()
		err := parallel.ForEachCtx(ctx, len(keys), e.nproc, func(tctx context.Context, i int) error {
			_, s := a.sp.start(tctx, "key", trace.A("part", p), trace.A("key", keys[i].String()))
			defer s.End()
			k0 := time.Now()
			r, err := core.ManufactureMemoCtx(tctx, prot, keys[i], e.prof, mm)
			if err != nil {
				return err
			}
			sim, err := gcode.SimulateCtx(tctx, r.Run.GCode, gcode.DimensionEliteEnvelope())
			if err != nil {
				return err
			}
			prov := core.NewProvenance(r, sim, 0)
			r.Run.Build.Grid.Release()
			out[i] = keyOutcome{key: keys[i].String(), sha: prov.STLSHA256, grade: prov.Grade}
			busyPer[i] = time.Since(k0)
			return nil
		})
		poolWall += time.Since(t0)
		if err != nil {
			return []string{fmt.Sprintf("pool round %s: %v", p, err)}
		}
		for _, b := range busyPer {
			busy += b
		}
		workers = max(workers, min(e.nproc, len(keys)))
		pool[p] = out
		a.ops += len(keys)
	}
	after := obs.Default().Snapshot()
	built := counterDelta(before, after, "memo.builds")
	reused := counterDelta(before, after, "memo.reused")
	a.res.set("memo.reuse_ratio", ratio(reused, built+reused))
	a.res.set("parallel.idle_share", 1-busy.Seconds()/(float64(workers)*poolWall.Seconds()))
	a.res.set("matrix.pool_round_ms", ms(poolWall))

	layers := 0
	t0 := time.Now()
	for _, p := range e.matrixParts() {
		prot := prots[p]
		tess := map[string]*mesh.Mesh{}
		for i, key := range core.AllKeys(prot) {
			got, n, err := a.replayKey(ctx, prot, key, tess)
			if err != nil {
				return append(fails, fmt.Sprintf("replay %s %v: %v", p, key, err))
			}
			layers += n
			if want := pool[p][i]; got != want {
				fails = append(fails, fmt.Sprintf("replay %s %v: digest/grade %s/%s, pool round %s/%s",
					p, key, got.sha, got.grade, want.sha, want.grade))
			}
		}
	}
	wall := ms(time.Since(t0))
	var staged float64
	for _, s := range replayStages {
		a.res.set(s+"_ms", p50(a.samples[s]))
		a.res.set(s+"_total_ms", sum(a.samples[s]))
		staged += sum(a.samples[s])
	}
	residual := (wall - staged) / wall
	a.res.set("matrix.residual_share", residual)
	a.res.set("matrix.replay_wall_ms", wall)
	if residual > 0.10 {
		a.res.Meta["residual_warning"] = fmt.Sprintf("%.1f%% of the replay is outside the timed stages", 100*residual)
	}
	a.res.set("slicer.layers_per_s", float64(layers)/(sum(a.samples["slicer.slice"])/1000))
	a.res.set("parallel.efficiency", (wall/ms(poolWall))/float64(workers))
	return fails
}

func counterDelta(before, after obs.Snapshot, name string) int64 {
	b, _ := before.Counter(name)
	v, _ := after.Counter(name)
	return v - b
}

// replayKey manufactures and grades one key the way core.ManufactureMemoCtx,
// supplychain.Pipeline and core.QualityMatrixWorkers do, one public call
// at a time. tess plays the stage memo: one tessellation per distinct CAD
// file and resolution. It returns the key's outcome and layer count.
func (a *attribution) replayKey(ctx context.Context, prot *core.Protected, key core.Key, tess map[string]*mesh.Mesh) (keyOutcome, int, error) {
	prof := a.e.prof
	var (
		part     *brep.Part
		cad      []byte
		m        *mesh.Mesh
		stlBytes []byte
		stats    stl.Stats
		ix       *slicer.Index
		sliced   *slicer.Result
		paths    []*slicer.LayerToolpath
		prog     *gcode.Program
		build    *printer.Build
		sim      *gcode.Report
		prov     core.Provenance
		err      error
	)
	if err = a.stage(ctx, "core.applykey", func() (err error) { part, err = core.ApplyKey(prot, key); return }); err != nil {
		return keyOutcome{}, 0, err
	}
	if err = a.stage(ctx, "brep.save", func() (err error) { cad, err = brep.Save(part); return }); err != nil {
		return keyOutcome{}, 0, err
	}
	digest := sha256.Sum256(cad)
	tk := hex.EncodeToString(digest[:]) + "|" + key.Resolution.Name
	master, ok := tess[tk]
	if !ok {
		if err = a.stage(ctx, "tessellate.build", func() (err error) {
			master, err = tessellate.Tessellate(part, key.Resolution)
			return
		}); err != nil {
			return keyOutcome{}, 0, err
		}
		tess[tk] = master
	}
	if err = a.stage(ctx, "stl.marshal", func() (err error) {
		m = master.Clone()
		if key.Orientation == mech.XZ {
			m.Transform(geom.RotateX(math.Pi / 2))
		}
		b := m.Bounds()
		m.Transform(geom.Translate(geom.V3(-b.Min.X, -b.Min.Y, -b.Min.Z)))
		stlBytes, err = stl.Marshal(m, stl.Binary, part.Name)
		stats = stl.StatsOf(m)
		return err
	}); err != nil {
		return keyOutcome{}, 0, err
	}
	opts := slicer.DefaultOptions()
	opts.LayerHeight = prof.LayerHeight
	opts.RoadWidth = prof.RoadWidth
	if err = a.stage(ctx, "slicer.index", func() (err error) { ix, err = slicer.BuildIndex(ctx, m, opts); return }); err != nil {
		return keyOutcome{}, 0, err
	}
	if err = a.stage(ctx, "slicer.slice", func() (err error) { sliced, err = slicer.SliceIndexedCtx(ctx, m, opts, ix); return }); err != nil {
		return keyOutcome{}, 0, err
	}
	if err = a.stage(ctx, "slicer.toolpath", func() (err error) { paths, err = sliced.Toolpaths(); return }); err != nil {
		return keyOutcome{}, 0, err
	}
	if err = a.stage(ctx, "gcode.generate", func() (err error) {
		prog, err = gcode.Generate(part.Name, paths, gcode.DefaultOptions())
		return
	}); err != nil {
		return keyOutcome{}, 0, err
	}
	if err = a.stage(ctx, "printer.print", func() (err error) {
		build, err = printer.PrintCtx(ctx, sliced, prof, printer.Options{})
		return
	}); err != nil {
		return keyOutcome{}, 0, err
	}
	var quality core.QualityReport
	grade, _ := a.do(ctx, "core.GradeBuild", func() error { quality = core.GradeBuild(build, true); return nil })
	if err = a.stage(ctx, "gcode.simulate", func() (err error) {
		sim, err = gcode.SimulateCtx(ctx, prog, gcode.DimensionEliteEnvelope())
		return
	}); err != nil {
		return keyOutcome{}, 0, err
	}
	provD, _ := a.do(ctx, "core.NewProvenance", func() error {
		prov = core.NewProvenance(&core.ManufactureResult{
			Key: key, Part: part, Quality: quality,
			Run: &supplychain.Run{Part: part, CADBytes: cad, Mesh: m, STLBytes: stlBytes, STLStats: stats,
				Sliced: sliced, Toolpaths: paths, GCode: prog, Build: build},
		}, sim, 0)
		return nil
	})
	a.samples["core.grade"] = append(a.samples["core.grade"], ms(grade+provD))
	build.Grid.Release()
	return keyOutcome{key: key.String(), sha: prov.STLSHA256, grade: prov.Grade}, len(sliced.Layers), nil
}

// jobs runs the same fresh jobs-cold specs in process (core.RunJob) and
// through the router, one at a time, so the pipeline's share of a cold
// request shows; the two must produce the same STL.
func (a *attribution) jobs() []string {
	e := a.e
	n := 16
	if e.cfg.quick {
		n = 4
	}
	gen := newColdSeq(^e.cfg.seed)
	client := newClient()
	var fails []string
	var inproc, routed []float64
	for i := range n {
		req := gen.at(i)
		spec, err := jobSpec(req)
		if err != nil {
			return append(fails, err.Error())
		}
		var job *core.JobResult
		d, err := a.do(e.ctx, "core.RunJob", func() (err error) { job, err = core.RunJob(e.ctx, spec, e.prof); return })
		if err != nil {
			return append(fails, fmt.Sprintf("core.RunJob: %v", err))
		}
		inproc = append(inproc, ms(d))
		ctx, s := a.sp.start(e.ctx, "POST /jobs (routed, cold)")
		st, lat, err := postJob(ctx, client, a.cl.url, req)
		s.End()
		a.ops += 2
		switch {
		case err != nil:
			fails = append(fails, fmt.Sprintf("routed cold job: %v", err))
		case st.STLSHA256 != job.Provenance.STLSHA256:
			fails = append(fails, fmt.Sprintf("routed cold job served %s, core.RunJob gives %s", st.STLSHA256, job.Provenance.STLSHA256))
		default:
			routed = append(routed, ms(lat))
		}
	}
	a.res.set("core.runjob_ms", p50(inproc))
	a.res.set("cold.routed_ms", p50(routed))
	a.res.set("cold.pipeline_share", p50(inproc)/p50(routed))
	return fails
}

// requestPath splits a warm request into its hops: the same warm jobs are
// requested through the router, directly from the shard that owns them (by
// the router's own ring), and from an in-process serve.Service memory hit.
func (a *attribution) requestPath() []string {
	e := a.e
	keys := hotKeySet(^e.cfg.seed, 8)
	rounds := 300
	if e.cfg.quick {
		rounds = 30
	}
	ring, err := shard.NewRing(a.cl.shardAddrs(), 0)
	if err != nil {
		return []string{err.Error()}
	}
	client := newClient()
	owners := make([]string, len(keys))
	for i, k := range keys {
		norm, err := k.Normalize()
		if err != nil {
			return []string{err.Error()}
		}
		owners[i] = ring.Owner(string(norm.CacheKey()))
		if _, _, err := postJob(e.ctx, client, a.cl.url, k); err != nil {
			return []string{fmt.Sprintf("warming probe key: %v", err)}
		}
	}
	var fails []string
	var viaRouter, direct []float64
	for j := range rounds {
		i := j % len(keys)
		for _, target := range []string{a.cl.url, "http://" + owners[i]} {
			ctx, s := a.sp.start(e.ctx, "POST /jobs (warm)", trace.A("target", target))
			st, lat, err := postJob(ctx, client, target, keys[i])
			s.End()
			a.ops++
			if err == nil && st.Outcome != "hit" && st.Outcome != "disk_hit" {
				err = fmt.Errorf("warm probe served as %q", st.Outcome)
			}
			if err != nil {
				fails = append(fails, err.Error())
				continue
			}
			if target == a.cl.url {
				viaRouter = append(viaRouter, ms(lat)*1000)
			} else {
				direct = append(direct, ms(lat)*1000)
			}
		}
	}

	svc := serve.NewService(0, e.prof)
	if _, err := svc.Do(e.ctx, keys[0]); err != nil {
		return append(fails, fmt.Sprintf("serve.Service.Do: %v", err))
	}
	var hits []float64
	for range rounds * 4 {
		var r *serve.Result
		d, err := a.do(e.ctx, "serve.Service.Do", func() (err error) { r, err = svc.Do(e.ctx, keys[0]); return })
		if err == nil && r.Outcome != cache.Hit {
			err = fmt.Errorf("in-process repeat served as %v", r.Outcome)
		}
		if err != nil {
			return append(fails, err.Error())
		}
		hits = append(hits, ms(d)*1000)
	}
	hit := p50(hits)
	a.res.set("hot.routed_us", p50(viaRouter))
	a.res.set("hot.direct_us", p50(direct))
	a.res.set("shard.hop_us", p50(viaRouter)-p50(direct))
	a.res.set("serve.http_us", p50(direct)-hit)
	a.res.set("cache.hit_us", hit)

	// The open-loop generator's own lateness, on the same warm keys at the
	// lowest jobs-hot ladder rate.
	clients := newClients(e.nproc)
	step := openLoop(e.ctx, realClock{}, e.nproc, hotLadder[0], time.Second/2, func(ctx context.Context, s, j int) error {
		_, _, err := postJob(ctx, clients[s], a.cl.url, keys[j%len(keys)])
		return err
	})
	a.ops += step.Sent
	fails = append(fails, step.Failed...)
	if len(step.Lag) == 0 {
		return append(fails, "open-loop probe: no sender ever waited for a due time")
	}
	a.res.set("gen.lag_p99_ms", percentile(step.Lag, 99))
	return fails
}

// diskAndSanitize times the disk tier on payloads the size of the
// workloads' artifacts, and the sanitize path's three calls on sanitize
// bodies, which it then sends through the router to compare digests and
// read the detector's flags. It returns the failed checks.
func (a *attribution) diskAndSanitize(w workload) ([]string, error) {
	e := a.e
	var bodies []sanBody
	if sw, ok := w.(*sanitizeWorkload); ok {
		bodies = sw.bodies
	} else {
		var err error
		if bodies, err = buildSanBodies(e.cfg.seed); err != nil {
			return nil, err
		}
	}
	size := map[[2]string]int{}
	for _, b := range bodies {
		size[[2]string{b.kind.part, b.kind.res}] = len(b.stl)
	}
	n := 16
	if e.cfg.quick {
		n = 4
	}
	// Payload sizes: n jobs-cold artifacts and n sanitize bodies.
	gen := newColdSeq(^e.cfg.seed)
	san := newSanSeq(^e.cfg.seed)
	var payloads [][]byte
	rng := newRNG(e.cfg.seed, 7)
	var firsts []sanReq
	for i := 0; len(firsts) < n; i++ {
		if r := san.at(i); !r.resend {
			firsts = append(firsts, r)
		}
	}
	for i := range n {
		req := gen.at(i)
		k := bodies[firsts[i].kind].kind
		for _, sz := range []int{size[[2]string{req.Part, req.Resolution}], size[[2]string{k.part, k.res}]} {
			p := make([]byte, sz)
			for j := 0; j+8 <= len(p); j += 8 {
				v := rng.Uint64()
				for b := range 8 {
					p[j+b] = byte(v >> (8 * b))
				}
			}
			payloads = append(payloads, p)
		}
	}
	store, err := diskstore.Open(filepath.Join(e.tmp, "diskstore-probe"), 0)
	if err != nil {
		return nil, err
	}
	defer store.Close()
	keys := make([]cache.Key, len(payloads))
	var puts, gets []float64
	for i, p := range payloads {
		keys[i] = cache.KeyOf(p)
		d, err := a.do(e.ctx, "diskstore.Put", func() error { return store.Put(e.ctx, keys[i], p) })
		if err != nil {
			return nil, err
		}
		puts = append(puts, ms(d))
	}
	for j := range 8 * len(keys) {
		k := keys[j%len(keys)]
		var ok bool
		d, _ := a.do(e.ctx, "diskstore.Get", func() error { _, ok = store.Get(e.ctx, k); return nil })
		if !ok {
			return nil, fmt.Errorf("diskstore probe: Get missed a key it just stored")
		}
		gets = append(gets, ms(d)*1000)
	}
	a.ops += len(puts) + len(gets)
	a.res.set("diskstore.put_ms", p50(puts))
	a.res.set("diskstore.get_us", p50(gets))

	var keyUS, unmarshal, sanitize []float64
	// flagged counts the bodies the served report flags, by whether they
	// carry a payload.
	flagged, total := map[bool]int64{}, map[bool]int64{}
	var fails []string
	client := newClient()
	var buf []byte
	for _, r := range firsts {
		buf = translateSTL(buf, bodies[r.kind].stl, sanShift(r.shift))
		body := buf
		d, _ := a.do(e.ctx, "serve.SanitizeKey", func() error { serve.SanitizeKey(body, stego.DefaultQuantum); return nil })
		keyUS = append(keyUS, ms(d)*1000)
		d, err := a.do(e.ctx, "stl.Unmarshal", func() error { _, err := stl.Unmarshal(body); return err })
		if err != nil {
			return nil, err
		}
		unmarshal = append(unmarshal, ms(d))
		var clean []byte
		d, err = a.do(e.ctx, "stego.SanitizeSTL", func() (err error) { clean, _, err = stego.SanitizeSTL(body, stego.Options{}); return })
		if err != nil {
			return nil, err
		}
		sanitize = append(sanitize, ms(d))
		ctx, s := a.sp.start(e.ctx, "POST /sanitize (routed)")
		var st sanitizeStatus
		_, err = post(ctx, client, a.cl.url+"/sanitize", "application/octet-stream", body, &st)
		s.End()
		a.ops += 4
		sum := sha256.Sum256(clean)
		embedded := bodies[r.kind].kind.embedded
		switch {
		case err != nil:
			fails = append(fails, fmt.Sprintf("routed sanitize: %v", err))
		case st.STLSHA256 != hex.EncodeToString(sum[:]):
			fails = append(fails, fmt.Sprintf("routed sanitize served %s, stego.SanitizeSTL gives %x", st.STLSHA256, sum))
		default:
			total[embedded]++
			if st.Report.Before.Suspicious() {
				flagged[embedded]++
			}
		}
	}
	a.res.set("serve.sanitize_key_us", p50(keyUS))
	a.res.set("stl.unmarshal_ms", p50(unmarshal))
	a.res.set("stego.sanitize_ms", p50(sanitize))
	a.res.set("stego.flag_ratio", ratio(flagged[true], total[true]))
	a.res.set("stego.clean_flag_ratio", ratio(flagged[false], total[false]))
	return fails, nil
}
