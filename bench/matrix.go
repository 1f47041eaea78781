package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"time"

	"obfuscade/internal/core"
	"obfuscade/internal/trace"
)

// matrixWorkload is the paper's own computation, in process: rounds of
// core.QualityMatrixWorkers at workers=nproc over the four protected parts
// (36 keys a round), in a seeded part order. No serving code runs.
type matrixWorkload struct {
	prots map[string]*core.Protected
	rng   *rand.Rand
	// ref holds the first round's per-key STL digest and grade; every
	// later round must reproduce it exactly.
	ref    map[string][]keyOutcome
	rounds int
}

// keyOutcome is what a matrix key must reproduce.
type keyOutcome struct {
	key, sha, grade string
}

func (m *matrixWorkload) cluster() *cluster { return nil }
func (m *matrixWorkload) close()            {}

// setup builds the four protected designs and computes one round of their
// matrices: the time until a matrix user holds a full result, including
// the lazy initialisation and warm-up that later rounds reuse. The first
// set-up round is the reference every later round must reproduce.
func (m *matrixWorkload) setup(e *env) ([]float64, error) {
	m.rng = newRNG(e.cfg.seed, 5)
	m.ref = map[string][]keyOutcome{}
	var times []float64
	for range e.setupRepeats() {
		t0 := time.Now()
		prots := map[string]*core.Protected{}
		for _, p := range e.matrixParts() {
			prot, err := core.BuildProtected(p)
			if err != nil {
				return nil, err
			}
			prots[p] = prot
		}
		m.prots = prots
		_, fails, err := m.round(e, spans{}, nil)
		if err != nil {
			return nil, err
		}
		if len(fails) > 0 {
			return nil, fmt.Errorf("set-up round: %v", fails)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return times, nil
}

// round runs the four parts' matrices once in a seeded order, appending
// each key's latency in ms to lat, and checks every key against the
// reference round (or records it, on the first round).
func (m *matrixWorkload) round(e *env, sp spans, lat []float64) ([]float64, []string, error) {
	var fails []string
	order := slices.Clone(e.matrixParts())
	m.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	for _, part := range order {
		// The product traces every matrix key as a span of category "key";
		// its duration is the key's latency in the pool.
		trace.Default().Reset()
		_, s := sp.start(e.ctx, "core.QualityMatrixWorkers", trace.A("part", part))
		entries, err := core.QualityMatrixWorkers(m.prots[part], e.prof, e.nproc)
		s.End()
		if err != nil {
			return lat, nil, fmt.Errorf("matrix %s: %w", part, err)
		}
		keys := 0
		for _, ev := range trace.Default().Events() {
			if ev.Kind == trace.KindSpan && ev.Cat == "key" {
				lat = append(lat, ms(ev.Dur))
				keys++
			}
		}
		if keys != len(entries) {
			return lat, nil, fmt.Errorf("matrix %s: %d key spans for %d keys (trace ring dropped %d events)",
				part, keys, len(entries), trace.Default().Dropped())
		}
		got := make([]keyOutcome, len(entries))
		for i, en := range entries {
			got[i] = keyOutcome{key: en.Key.String(), sha: en.Provenance.STLSHA256, grade: en.Provenance.Grade}
		}
		want, ok := m.ref[part]
		if !ok {
			m.ref[part] = got
			continue
		}
		if !slices.Equal(got, want) {
			fails = append(fails, fmt.Sprintf("matrix %s round %d: digests or grades differ from the first round", part, m.rounds+1))
		}
	}
	m.rounds++
	return lat, fails, nil
}

// measure runs whole rounds until d has passed. throughput is keys per
// second; latency is per key.
func (m *matrixWorkload) measure(e *env, sp spans, d time.Duration, _ bool) (*phaseStats, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ps := &phaseStats{tailTarget: 99}
	start := time.Now()
	var roundS []float64
	for time.Since(start) < d && e.ctx.Err() == nil {
		var fails []string
		var err error
		r0 := time.Now()
		ps.lat, fails, err = m.round(e, sp, ps.lat)
		if err != nil {
			return nil, err
		}
		roundS = append(roundS, time.Since(r0).Seconds())
		ps.failed = append(ps.failed, fails...)
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	slices.Sort(ps.lat)
	ps.ops = len(ps.lat)
	ps.throughput = float64(ps.ops) / wall.Seconds()
	ps.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	ps.meta = map[string]any{"round_s": roundS, "keys_per_round": ps.ops / max(len(roundS), 1), "workers": e.nproc,
		"gc_cycles": after.NumGC - before.NumGC, "gc_pause_ms": float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6}
	return ps, e.ctx.Err()
}

func (m *matrixWorkload) verify(*env) []string { return nil }

// pids is the harness itself: the matrix runs in it.
func (m *matrixWorkload) pids() []string { return []string{"self"} }
