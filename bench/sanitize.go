package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"obfuscade/internal/core"
	"obfuscade/internal/mesh"
	"obfuscade/internal/stego"
	"obfuscade/internal/stl"
	"obfuscade/internal/tessellate"
	"obfuscade/internal/trace"
)

// sanBody is one base design file of the sanitize mix.
type sanBody struct {
	kind sanKind
	stl  []byte
}

// buildSanBodies exports every part at every resolution as binary STL twice:
// once carrying a seeded stego.Embed payload in both channels, once already
// canonical (clean). The order follows sanMix.
func buildSanBodies(seed int64) ([]sanBody, error) {
	kinds, _ := sanMix()
	rng := newRNG(seed, 6)
	meshes := map[[2]string]*mesh.Mesh{}
	out := make([]sanBody, len(kinds))
	for i, k := range kinds {
		m, ok := meshes[[2]string{k.part, k.res}]
		if !ok {
			prot, err := core.BuildProtected(k.part)
			if err != nil {
				return nil, err
			}
			res, err := tessellate.ByName(k.res)
			if err != nil {
				return nil, err
			}
			if m, err = tessellate.Tessellate(prot.Part, res); err != nil {
				return nil, err
			}
			meshes[[2]string{k.part, k.res}] = m
		}
		var err error
		if k.embedded {
			payload := make([]byte, 32)
			for j := range payload {
				payload[j] = byte(rng.Uint32())
			}
			if m, err = stego.Embed(m, payload, stego.Options{}); err != nil {
				return nil, fmt.Errorf("embedding into %s/%s: %w", k.part, k.res, err)
			}
		} else {
			m = stego.Sanitize(m, stego.Options{})
		}
		data, err := stl.Marshal(m, stl.Binary, k.part)
		if err != nil {
			return nil, err
		}
		out[i] = sanBody{kind: k, stl: data}
	}
	return out, nil
}

// sanitizeStatus is the part of the POST /sanitize JSON the harness reads.
type sanitizeStatus struct {
	ID        string               `json:"id"`
	Outcome   string               `json:"outcome"`
	STLSHA256 string               `json:"stl_sha256"`
	Report    stego.SanitizeReport `json:"report"`
}

// sanitizeWorkload is sanitize: POST /sanitize through the router from
// nproc closed-loop clients. Three in four requests upload a body the
// cluster has never seen (a miss: decode, sanitize, disk write); the
// fourth re-sends a recent one (a hit).
type sanitizeWorkload struct {
	httpWorkload
	bodies []sanBody
	gen    *seq[sanReq]
	next   int

	mu sync.Mutex
	// digests maps each completed first send to the digest it was served,
	// so a re-send must return the same bytes.
	digests map[int]string
	// sampled lists every 16th first send, checked after the timed phase
	// against an in-process stego.SanitizeSTL.
	sampled []int
}

func (w *sanitizeWorkload) setup(e *env) ([]float64, error) {
	var err error
	if w.bodies, err = buildSanBodies(e.cfg.seed); err != nil {
		return nil, err
	}
	w.gen = newSanSeq(e.cfg.seed)
	w.digests = map[int]string{}
	cl, times, err := restartTimes(e.ctx, e.bin, filepath.Join(e.tmp, "cluster"), coldShards, nil, e.setupRepeats())
	w.cl = cl
	return times, err
}

// body returns the bytes request i uploads, built into buf.
func (w *sanitizeWorkload) body(buf []byte, i int) ([]byte, sanReq, int) {
	r := w.gen.at(i)
	first := i
	if r.resend {
		first = r.of
	}
	f := w.gen.at(first)
	return translateSTL(buf, w.bodies[f.kind].stl, sanShift(f.shift)), r, first
}

func (w *sanitizeWorkload) measure(e *env, sp spans, d time.Duration, _ bool) (*phaseStats, error) {
	clients := newClients(e.nproc)
	bufs := make([][]byte, e.nproc)
	inBytes := make([]int64, e.nproc)
	sph, err := beginServerPhase(e.ctx, w.cl)
	if err != nil {
		return nil, err
	}
	base := w.next
	ls := closedLoop(e.ctx, e.nproc, d, func(ctx context.Context, c, i int) (time.Duration, error) {
		i += base
		body, r, first := w.body(bufs[c], i)
		bufs[c] = body
		inBytes[c] += int64(len(body))
		ctx, s := sp.start(ctx, "POST /sanitize", trace.A("bytes", fmt.Sprint(len(body))))
		defer s.End()
		var st sanitizeStatus
		lat, err := post(ctx, clients[c], w.cl.url+"/sanitize", "application/octet-stream", body, &st)
		if err != nil {
			return 0, err
		}
		return lat, w.check(i, r, first, st)
	})
	w.next += ls.attempted
	alloc, delta, err := sph.end(e.ctx)
	if err != nil {
		return nil, err
	}
	var in int64
	for _, b := range inBytes {
		in += b
	}
	ps := &phaseStats{
		ops: ls.attempted, failed: ls.failed, lat: durationsMS(ls.lat), tailTarget: 95,
		throughput: float64(len(ls.lat)) / ls.wall.Seconds(), allocMB: alloc,
		meta: map[string]any{
			"clients": e.nproc, "server_counters": delta,
			"input_mb_per_s": float64(in) / (1 << 20) / ls.wall.Seconds(),
		},
	}
	return ps, e.ctx.Err()
}

// check validates one response: first sends miss and re-sends are served
// from the cache with the first send's digest; a body carrying a payload is
// flagged, a canonical one is not, and the output is never flagged.
func (w *sanitizeWorkload) check(i int, r sanReq, first int, st sanitizeStatus) error {
	kind := w.bodies[w.gen.at(first).kind].kind
	switch {
	case !r.resend && st.Outcome != "miss":
		return fmt.Errorf("first send served as %q, want miss", st.Outcome)
	case r.resend && st.Outcome == "miss":
		return fmt.Errorf("re-send of request %d recomputed, want a cache hit", first)
	case st.Report.Before.Suspicious() != kind.embedded:
		return fmt.Errorf("%s/%s embedded=%t flagged=%t", kind.part, kind.res, kind.embedded, st.Report.Before.Suspicious())
	case st.Report.After.Suspicious():
		return fmt.Errorf("sanitized %s/%s still flagged", kind.part, kind.res)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if r.resend {
		if want, ok := w.digests[first]; ok && want != st.STLSHA256 {
			return fmt.Errorf("re-send of request %d served %s, first send %s", first, st.STLSHA256, want)
		}
		return nil
	}
	w.digests[i] = st.STLSHA256
	if i%16 == 0 {
		w.sampled = append(w.sampled, i)
	}
	return nil
}

// verify sanitizes every sampled body in process and compares digests.
func (w *sanitizeWorkload) verify(*env) []string {
	var fails []string
	slices.Sort(w.sampled)
	var buf []byte
	for _, i := range w.sampled {
		body, _, _ := w.body(buf, i)
		buf = body
		clean, _, err := stego.SanitizeSTL(body, stego.Options{})
		if err != nil {
			fails = append(fails, fmt.Sprintf("request %d: in-process sanitize: %v", i, err))
			continue
		}
		sum := sha256.Sum256(clean)
		if got := hex.EncodeToString(sum[:]); got != w.digests[i] {
			fails = append(fails, fmt.Sprintf("request %d: served %s, in-process sanitize gives %s", i, w.digests[i], got))
		}
	}
	return fails
}
