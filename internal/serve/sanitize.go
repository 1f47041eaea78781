package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"

	"obfuscade/internal/cache"
	"obfuscade/internal/obs"
	"obfuscade/internal/stego"
	"obfuscade/internal/trace"
)

// MaxSanitizeBytes bounds a POST /sanitize body. Unlike job
// submissions, sanitize requests carry real geometry; 8 MiB covers
// ~170k binary-STL facets.
const MaxSanitizeBytes = 8 << 20

var (
	stSanitize   = trace.NewStage("stage", "serve.sanitize")
	mSanRequests = obs.Default().Counter("serve.sanitize.requests")
	mSanDone     = obs.Default().Counter("serve.sanitize.completed")
	mSanFailed   = obs.Default().Counter("serve.sanitize.failed")
	mSanFlagged  = obs.Default().Counter("serve.sanitize.flagged")
)

// sanitizedResult is the immutable artifact stored per sanitize key:
// the canonical STL bytes, the detection report (JSON), and the output
// digest.
type sanitizedResult struct {
	stl    []byte
	report []byte
	sha    string
}

// SizeBytes implements cache.Value.
func (r *sanitizedResult) SizeBytes() int64 {
	return int64(len(r.stl) + len(r.report) + len(r.sha))
}

// SanitizeKey content-addresses a sanitize request: the raw body plus
// the quantum plus the sanitizer version, so a behaviour change
// invalidates cached artifacts just like PipelineVersion does for jobs.
// The router uses the same key to place the request on the shard that
// will cache it.
func SanitizeKey(body []byte, quantum float64) cache.Key {
	canonical := make([]byte, 0, len(body)+64)
	canonical = append(canonical, "sanitize\x00"...)
	canonical = append(canonical, stego.Version...)
	canonical = append(canonical, 0)
	canonical = strconv.AppendFloat(canonical, quantum, 'x', -1, 64)
	canonical = append(canonical, 0)
	canonical = append(canonical, body...)
	return cache.KeyOf(canonical)
}

// ParseSanitizeQuantum reads the optional ?quantum query parameter
// (coordinate grid pitch in model units); absent means
// stego.DefaultQuantum.
func ParseSanitizeQuantum(r *http.Request) (float64, error) {
	raw := r.URL.Query().Get("quantum")
	if raw == "" {
		return stego.DefaultQuantum, nil
	}
	q, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, fmt.Errorf("serve: quantum parameter %q is not a number", raw)
	}
	if q <= 0 || math.IsNaN(q) || math.IsInf(q, 0) {
		return 0, fmt.Errorf("serve: quantum must be a positive finite number, got %q", raw)
	}
	return q, nil
}

// admitRun counts one compute run — a sanitize, or the pipeline re-run
// of an evicted job artifact — against the same admission bound as
// jobs. Callers invoke it inside the cache compute function, so hits,
// disk hits and coalesced joins are never shed: like job joins, they
// add no compute load.
func (s *Server) admitRun() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return errDraining
	}
	if s.maxQueue > 0 && s.inflight+1 > s.maxQueue {
		mShed.Inc()
		return errOverloaded
	}
	s.inflight++
	return nil
}

func (s *Server) releaseRun() {
	s.mu.Lock()
	s.inflight--
	s.mu.Unlock()
}

// sanitizeStatus is the JSON POST /sanitize returns.
type sanitizeStatus struct {
	ID        string          `json:"id"`
	Outcome   string          `json:"outcome"`
	STLSHA256 string          `json:"stl_sha256"`
	STLBytes  int             `json:"stl_bytes"`
	STLURL    string          `json:"stl_url"`
	Report    json.RawMessage `json:"report"`
}

// handleSanitize accepts a raw STL body, destroys its stego channels
// (canonical facet sort + coordinate re-quantization), and returns the
// detection report plus a handle to the sanitized artifact. Results are
// content-addressed in the same two-tier cache as jobs: a repeated
// upload is a hit (disk_hit across restarts), concurrent identical
// uploads coalesce onto one run, and only the run that actually
// sanitizes counts against the admission queue.
func (s *Server) handleSanitize(w http.ResponseWriter, r *http.Request) {
	quantum, err := ParseSanitizeQuantum(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxSanitizeBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("serve: sanitize body exceeds %d bytes", MaxSanitizeBytes))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: reading sanitize body: %w", err))
		return
	}
	if len(body) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("serve: empty sanitize body"))
		return
	}
	mSanRequests.Inc()
	key := SanitizeKey(body, quantum)
	ctx, span := trace.StartSpan(r.Context(), "serve", "sanitize", trace.A("key", string(key)))
	defer span.End()
	v, out, err := s.svc.cache.GetOrCompute(ctx, key, func(ctx context.Context) (cache.Value, error) {
		if err := s.admitRun(); err != nil {
			return nil, err
		}
		defer s.releaseRun()
		return s.runSanitize(ctx, body, quantum)
	})
	if err != nil {
		if errors.Is(err, errDraining) || errors.Is(err, errOverloaded) {
			writeSubmitError(w, err)
			return
		}
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	res := v.(*sanitizedResult)
	span.SetArg("outcome", out.String())
	AnnotateOutcome(r.Context(), out.String())
	writeJSON(w, http.StatusOK, sanitizeStatus{
		ID:        string(key),
		Outcome:   out.String(),
		STLSHA256: res.sha,
		STLBytes:  len(res.stl),
		STLURL:    "/sanitize/" + string(key) + "/stl",
		Report:    res.report,
	})
}

// runSanitize executes one sanitize as the serve.sanitize stage and
// freezes the outcome into an immutable cache value.
func (s *Server) runSanitize(ctx context.Context, body []byte, quantum float64) (_ cache.Value, err error) {
	_, sp := stSanitize.Start(ctx)
	defer func() { sp.EndErr(err) }()
	clean, rep, err := stego.SanitizeSTL(body, stego.Options{Quantum: quantum})
	if err != nil {
		mSanFailed.Inc()
		return nil, fmt.Errorf("serve: sanitize: %w", err)
	}
	report, err := json.Marshal(rep)
	if err != nil {
		mSanFailed.Inc()
		return nil, fmt.Errorf("serve: encoding sanitize report: %w", err)
	}
	if rep.Before.Suspicious() {
		mSanFlagged.Inc()
	}
	mSanDone.Inc()
	sum := sha256.Sum256(clean)
	return &sanitizedResult{stl: clean, report: report, sha: hex.EncodeToString(sum[:])}, nil
}

var errUnknownSanitize = errors.New("serve: unknown sanitize artifact (re-POST the file)")

// handleSanitizeSTL serves a sanitized artifact by its content address.
// The read goes through the cache (not just memory) so a restarted
// server still answers from the disk tier; an address it has never
// computed is a 404.
func (s *Server) handleSanitizeSTL(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	v, out, err := s.svc.cache.GetOrCompute(r.Context(), cache.Key(id), func(context.Context) (cache.Value, error) {
		return nil, errUnknownSanitize
	})
	if err != nil {
		writeError(w, http.StatusNotFound, errUnknownSanitize)
		return
	}
	res, ok := v.(*sanitizedResult)
	if !ok {
		writeError(w, http.StatusNotFound, errUnknownSanitize)
		return
	}
	AnnotateOutcome(r.Context(), out.String())
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", `attachment; filename="sanitized.stl"`)
	w.Header().Set("X-Stl-Sha256", res.sha)
	w.Write(res.stl)
}
