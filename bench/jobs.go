package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"obfuscade/internal/core"
	"obfuscade/internal/mech"
	"obfuscade/internal/serve"
	"obfuscade/internal/tessellate"
	"obfuscade/internal/trace"
)

// jobStatus is the part of the serve tier's job JSON the harness reads.
type jobStatus struct {
	State     string `json:"state"`
	Outcome   string `json:"outcome"`
	STLSHA256 string `json:"stl_sha256"`
	STLBytes  int    `json:"stl_bytes"`
	Error     string `json:"error"`
}

// postJob submits req with ?wait=1 and returns the finished job's status.
func postJob(ctx context.Context, c *http.Client, base string, req serve.Request) (jobStatus, time.Duration, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return jobStatus{}, 0, err
	}
	var st jobStatus
	lat, err := post(ctx, c, base+"/jobs?wait=1", "application/json", body, &st)
	if err == nil && st.State != "done" {
		err = fmt.Errorf("job state %q: %s", st.State, st.Error)
	}
	return st, lat, err
}

// jobSpec is the pipeline job a normalized request describes.
func jobSpec(req serve.Request) (core.JobSpec, error) {
	res, err := tessellate.ByName(req.Resolution)
	if err != nil {
		return core.JobSpec{}, err
	}
	o := mech.XY
	if req.Orientation == mech.XZ.String() {
		o = mech.XZ
	}
	return core.JobSpec{
		Part:     req.Part,
		Key:      core.Key{Resolution: res, Orientation: o, RestoreSphere: req.RestoreSphere},
		Seed:     req.Seed,
		Simulate: req.Simulate,
	}, nil
}

func newClients(n int) []*http.Client {
	out := make([]*http.Client, n)
	for i := range out {
		out[i] = newClient()
	}
	return out
}

// serverPhase brackets a timed phase against a cluster: it reads the
// servers' allocation and counters before, and after returns their deltas.
type serverPhase struct {
	cl       *cluster
	alloc    float64
	counters map[string]int64
}

func beginServerPhase(ctx context.Context, cl *cluster) (*serverPhase, error) {
	p := &serverPhase{cl: cl}
	var err error
	if p.alloc, err = cl.totalAllocMB(ctx); err != nil {
		return nil, err
	}
	if p.counters, err = cl.counters(ctx); err != nil {
		return nil, err
	}
	return p, nil
}

// end returns the MB the servers allocated and the counter deltas since
// the phase began.
func (p *serverPhase) end(ctx context.Context) (float64, map[string]int64, error) {
	alloc, err := p.cl.totalAllocMB(ctx)
	if err != nil {
		return 0, nil, err
	}
	now, err := p.cl.counters(ctx)
	if err != nil {
		return 0, nil, err
	}
	delta := map[string]int64{}
	for k, v := range now {
		if d := v - p.counters[k]; d != 0 {
			delta[k] = d
		}
	}
	return alloc - p.alloc, delta, nil
}

// httpWorkload holds what the three workloads served by the cluster share.
type httpWorkload struct {
	cl *cluster
}

func (h *httpWorkload) cluster() *cluster { return h.cl }
func (h *httpWorkload) close()            { h.cl.stop() }

func (h *httpWorkload) pids() []string { return h.cl.pids() }

// coldWorkload is jobs-cold: POST /jobs?wait=1 through the router from nproc
// closed-loop clients, every request a fresh seed, so every request runs
// the whole pipeline and writes its result through to disk.
type coldWorkload struct {
	httpWorkload
	gen  *seq[serve.Request]
	next int // index of the next request
	// sampled holds every 16th response's digest, checked against an
	// in-process core.RunJob after the timed phase.
	mu      sync.Mutex
	sampled map[int]string
}

// coldSampleEvery is the jobs-cold output-check sampling interval.
const coldSampleEvery = 16

func (w *coldWorkload) setup(e *env) ([]float64, error) {
	w.gen = newColdSeq(e.cfg.seed)
	w.sampled = map[int]string{}
	cl, times, err := restartTimes(e.ctx, e.bin, filepath.Join(e.tmp, "cluster"), coldShards, nil, e.setupRepeats())
	w.cl = cl
	return times, err
}

// coldShards sizes jobs-cold and sanitize shard caches: every request is a
// new key, so the memory tier only has to hold what re-sends reach back for.
var coldShards = shardConfig{cacheBytes: 32 << 20, cacheDiskBytes: 128 << 20}

func (w *coldWorkload) measure(e *env, sp spans, d time.Duration, _ bool) (*phaseStats, error) {
	clients := newClients(e.nproc)
	sph, err := beginServerPhase(e.ctx, w.cl)
	if err != nil {
		return nil, err
	}
	base := w.next
	ls := closedLoop(e.ctx, e.nproc, d, func(ctx context.Context, c, i int) (time.Duration, error) {
		i += base
		req := w.gen.at(i)
		ctx, s := sp.start(ctx, "POST /jobs", trace.A("part", req.Part), trace.A("res", req.Resolution))
		defer s.End()
		st, lat, err := postJob(ctx, clients[c], w.cl.url, req)
		if err != nil {
			return 0, err
		}
		if st.Outcome != "miss" {
			return lat, fmt.Errorf("fresh job served as %q, want miss", st.Outcome)
		}
		if i%coldSampleEvery == 0 {
			w.mu.Lock()
			w.sampled[i] = st.STLSHA256
			w.mu.Unlock()
		}
		return lat, nil
	})
	w.next += ls.attempted
	alloc, delta, err := sph.end(e.ctx)
	if err != nil {
		return nil, err
	}
	ps := &phaseStats{
		ops: ls.attempted, failed: ls.failed, lat: durationsMS(ls.lat), tailTarget: 95,
		throughput: float64(len(ls.lat)) / ls.wall.Seconds(), allocMB: alloc,
		meta: map[string]any{"clients": e.nproc, "server_counters": delta},
	}
	return ps, e.ctx.Err()
}

// verify recomputes every sampled job in process and compares digests.
func (w *coldWorkload) verify(e *env) []string {
	var fails []string
	idx := make([]int, 0, len(w.sampled))
	for i := range w.sampled {
		idx = append(idx, i)
	}
	slices.Sort(idx)
	for _, i := range idx {
		req := w.gen.at(i)
		spec, err := jobSpec(req)
		if err != nil {
			fails = append(fails, fmt.Sprintf("job %d: %v", i, err))
			continue
		}
		job, err := core.RunJob(e.ctx, spec, e.prof)
		if err != nil {
			fails = append(fails, fmt.Sprintf("job %d: in-process run: %v", i, err))
			continue
		}
		if job.Provenance.STLSHA256 != w.sampled[i] {
			fails = append(fails, fmt.Sprintf("job %d: served STL %s, in-process run gives %s", i, w.sampled[i], job.Provenance.STLSHA256))
		}
	}
	return fails
}

// hotWorkload is jobs-hot: an open loop of POST /jobs?wait=1 over a warmed
// working set of 256 keys with Zipf(1.1) popularity. Each shard's memory
// tier holds about a quarter of its share of the working set, so the rest
// is served from disk; no request runs the pipeline.
type hotWorkload struct {
	httpWorkload
	keys   []serve.Request
	draws  *seq[int]
	next   int // index of the next draw
	warmMB float64
}

const (
	hotKeyCount = 256
	// hotSLOms is the latency limit on p99.
	hotSLOms = 10.0
	// hotRefRate, in requests per second, is where p50_ms and tail_ms are
	// read: about a fifth of what two shards and a router sustain on two
	// CPUs, so the numbers describe a cluster that keeps up with room to
	// spare. At twice the rate its p95 moved by a fifth between runs.
	hotRefRate = 1000.0
)

// hotLadder is the fixed rates, in requests per second, whose latency the
// untraced run records.
var hotLadder = []float64{1000, 2000, 3000, 4000}

func (w *hotWorkload) setup(e *env) ([]float64, error) {
	n := hotKeyCount
	if e.cfg.quick {
		n = 16
	}
	w.keys = hotKeySet(e.cfg.seed, n)
	w.draws = newHotSeq(e.cfg.seed, n)
	dir := filepath.Join(e.tmp, "cluster")
	// Warm every key once through a cluster with room for all of them; the
	// artifacts land in the shards' disk tiers.
	cl, err := startCluster(e.ctx, e.bin, dir, shardConfig{cacheBytes: 256 << 20, cacheDiskBytes: 1 << 30}, nil)
	if err != nil {
		return nil, err
	}
	clients := newClients(e.nproc)
	var mu sync.Mutex
	var bytes int64
	ls := forEachOp(e.ctx, e.nproc, n, func(ctx context.Context, c, i int) (time.Duration, error) {
		st, lat, err := postJob(ctx, clients[c], cl.url, w.keys[i])
		mu.Lock()
		bytes += int64(st.STLBytes) + 1024 // plus about a manifest
		mu.Unlock()
		return lat, err
	})
	addrs := cl.shardAddrs()
	cl.stop()
	if len(ls.failed) > 0 {
		return nil, fmt.Errorf("warming jobs-hot keys: %v", ls.failed[0])
	}
	w.warmMB = float64(bytes) / (1 << 20)
	// Each shard owns about half the keys; its memory tier gets a quarter
	// of that.
	cfg := shardConfig{cacheBytes: bytes / (4 * shardCount), cacheDiskBytes: 1 << 30}
	cl, times, err := restartTimes(e.ctx, e.bin, dir, cfg, addrs, e.setupRepeats())
	w.cl = cl
	if err != nil {
		return nil, err
	}
	// An untimed step at the reference rate, eight draws per key (two
	// seconds for 256 keys), refills the memory tiers the restart emptied.
	st := w.step(e, spans{}, newClients(e.nproc), hotRefRate, time.Duration(8*n)*time.Second/time.Duration(hotRefRate))
	if len(st.Failed) > 0 {
		return nil, fmt.Errorf("jobs-hot warm-up: %s", st.Failed[0])
	}
	return times, nil
}

// request sends draw i of the key stream from client c and checks that a
// cache tier served it.
func (w *hotWorkload) request(ctx context.Context, sp spans, c *http.Client, i int) (time.Duration, error) {
	ctx, span := sp.start(ctx, "POST /jobs")
	defer span.End()
	st, lat, err := postJob(ctx, c, w.cl.url, w.keys[w.draws.at(i)])
	if err == nil && st.Outcome != "hit" && st.Outcome != "disk_hit" {
		err = fmt.Errorf("warm key served as %q, want hit or disk_hit", st.Outcome)
	}
	return lat, err
}

// step runs one open-loop step at rate for d.
func (w *hotWorkload) step(e *env, sp spans, clients []*http.Client, rate float64, d time.Duration) stepStats {
	base := w.next
	w.next += int(rate * d.Seconds())
	return openLoop(e.ctx, realClock{}, len(clients), rate, d, func(ctx context.Context, s, j int) error {
		_, err := w.request(ctx, sp, clients[s], base+j)
		return err
	})
}

// measure runs the open loop at the reference rate, where p50_ms and
// tail_ms are read. Untraced runs (full) give it two fifths of d. They
// spend the next fifth on a ladder of fixed rates that records latency at
// each and the highest rate meeting the SLO, and the last two fifths on
// throughput: the cluster's capacity on this mix, as the median completion
// rate of nproc clients sending back to back over one-second windows.
func (w *hotWorkload) measure(e *env, sp spans, d time.Duration, full bool) (*phaseStats, error) {
	clients := newClients(e.nproc)
	sph, err := beginServerPhase(e.ctx, w.cl)
	if err != nil {
		return nil, err
	}
	refDur := d
	if full {
		refDur = d * 2 / 5
	}
	ref := w.step(e, sp, clients, hotRefRate, refDur)
	// p99 at the reference rate rests on a handful of scheduling stalls
	// on a two-CPU host and moves by a third between runs; p95 repeats
	// better. The ladder below still judges every rate on p99.
	ps := &phaseStats{ops: ref.Sent, failed: ref.Failed, lat: ref.Lat, tailTarget: 95}
	ps.throughput = float64(len(ref.Lat)) / ref.Actual.Seconds()
	lags := slices.Clone(ref.Lag)
	var steps []stepStats
	var rates []float64
	if full {
		// The ladder's rising load also takes the servers from the
		// reference rate up towards saturation before capacity is timed.
		stepDur := d / 5 / time.Duration(len(hotLadder))
		for _, rate := range hotLadder {
			st := w.step(e, sp, clients, rate, stepDur)
			steps = append(steps, st)
			ps.ops += st.Sent
			ps.failed = append(ps.failed, st.Failed...)
			lags = append(lags, st.Lag...)
			if ladderDone(st, hotSLOms) || e.ctx.Err() != nil {
				break
			}
		}
		// With both CPUs saturated by five processes, a stall in one
		// window moves the median by one rank instead of dragging down
		// the whole phase's rate.
		windows := max(int(d*2/5/time.Second), 1)
		for range windows {
			base := w.next
			sat := closedLoop(e.ctx, e.nproc, d*2/5/time.Duration(windows), func(ctx context.Context, c, i int) (time.Duration, error) {
				return w.request(ctx, sp, clients[c], base+i)
			})
			w.next += sat.attempted
			ps.ops += sat.attempted
			ps.failed = append(ps.failed, sat.failed...)
			rates = append(rates, float64(len(sat.lat))/sat.wall.Seconds())
		}
		ps.throughput = median(rates)
	}
	alloc, delta, err := sph.end(e.ctx)
	if err != nil {
		return nil, err
	}
	ps.allocMB = alloc
	if n := delta["serve.jobs.completed"]; n != 0 {
		ps.failed = append(ps.failed, fmt.Sprintf("%d pipeline runs during the timed phase, want 0", n))
	}
	slices.Sort(lags)
	lagP99 := percentile(lags, 99)
	ladder := make([]map[string]any, len(steps))
	for i, st := range steps {
		ladder[i] = map[string]any{"rate": st.Rate, "p50_ms": percentile(st.Lat, 50), "p99_ms": percentile(st.Lat, 99),
			"failed": len(st.Failed), "actual_s": st.Actual.Seconds(), "meets_slo": st.meetsSLO(hotSLOms)}
	}
	ps.meta = map[string]any{
		"senders": e.nproc, "reference_rate": hotRefRate, "slo_p99_ms": hotSLOms, "ladder": ladder,
		"max_rps_slo": maxRateMeetingSLO(steps, hotSLOms), "reference_actual_s": ref.Actual.Seconds(),
		"reference_ms": map[string]float64{"p90": percentile(ref.Lat, 90), "p95": percentile(ref.Lat, 95),
			"p99": percentile(ref.Lat, 99), "p99.9": percentile(ref.Lat, 99.9)},
		"capacity_windows_per_s": rates, "working_set_mb": w.warmMB, "keys": len(w.keys),
		"gen_lag_p99_ms": lagP99, "gen_lag_valid": lagP99 <= 1, "server_counters": delta,
	}
	return ps, e.ctx.Err()
}

func (w *hotWorkload) verify(*env) []string { return nil }
