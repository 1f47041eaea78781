// Package serve is the obfuscation job service: a long-running HTTP
// front end over the manufacture pipeline. Requests are normalized,
// content-addressed (SHA-256 of the canonical request plus the pipeline
// version) and served through a two-tier result cache — an in-memory
// LRU over an optional content-addressed disk store — with singleflight
// coalescing, so N concurrent identical submissions run the pipeline
// once, a repeated request returns byte-for-byte the artifact of the
// first, and a process restart on the same cache directory serves
// previously computed artifacts without re-running the pipeline. Jobs
// run under per-job deadlines that propagate through the context-aware
// pipeline stages; admission control sheds load (429 + Retry-After)
// once the in-flight queue passes its bound; shutdown drains in-flight
// jobs and flushes their provenance manifests.
package serve

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"

	"obfuscade/internal/cache"
	"obfuscade/internal/core"
	"obfuscade/internal/obs"
	"obfuscade/internal/printer"
)

var (
	stJob      = obs.Stage("serve.job")
	mRequests  = obs.Default().Counter("serve.requests")
	mCompleted = obs.Default().Counter("serve.jobs.completed")
	mFailed    = obs.Default().Counter("serve.jobs.failed")
	mShed      = obs.Default().Counter("serve.shed")
	mBatches   = obs.Default().Counter("serve.batch.requests")
	mBatchJobs = obs.Default().Counter("serve.batch.jobs")
	gInflight  = obs.Default().Gauge("serve.jobs.inflight")
)

// cachedResult is the immutable artifact stored per cache key.
type cachedResult struct {
	stl      []byte
	manifest []byte // provenance as a single JSON line, no trailing newline
	stlSHA   string
	grade    string
}

// SizeBytes implements cache.Value.
func (r *cachedResult) SizeBytes() int64 {
	return int64(len(r.stl) + len(r.manifest) + len(r.stlSHA) + len(r.grade))
}

// resultCodec round-trips cache values through the disk tier as one
// frame: a version byte (frameVersion), a kind byte (frameJob or
// frameSanitize), then the kind's fields, each a big-endian uint32
// length followed by that many bytes. A job result (cachedResult) has
// four fields (stl, manifest, sha, grade), a sanitize result
// (sanitizedResult) three (stl, report, sha). The disk store's own
// integrity digest covers the frame, so the codec only validates
// structure, not content. Any other layout fails to decode — including
// the version-less frames of earlier builds, whose first byte is 0 (the
// high byte of a job's stl length) or 0xFF (the sanitize sentinel) — and
// the cache then recomputes and overwrites the object.
type resultCodec struct{}

const (
	frameVersion  = 1
	frameJob      = 'j'
	frameSanitize = 's'
)

// frame encodes a header and length-prefixed fields.
func frame(kind byte, fields ...[]byte) []byte {
	n := 2
	for _, f := range fields {
		n += 4 + len(f)
	}
	buf := append(make([]byte, 0, n), frameVersion, kind)
	for _, f := range fields {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(f)))
		buf = append(buf, f...)
	}
	return buf
}

// splitFields parses exactly n length-prefixed fields consuming all of
// data.
func splitFields(data []byte, n int) ([][]byte, error) {
	fields := make([][]byte, n)
	for i := range fields {
		if len(data) < 4 {
			return nil, errBadFrame
		}
		ln := binary.BigEndian.Uint32(data)
		data = data[4:]
		if uint64(len(data)) < uint64(ln) {
			return nil, errBadFrame
		}
		fields[i] = data[:ln:ln]
		data = data[ln:]
	}
	if len(data) != 0 {
		return nil, errBadFrame
	}
	return fields, nil
}

// Encode implements cache.Codec.
func (resultCodec) Encode(v cache.Value) ([]byte, error) {
	switch r := v.(type) {
	case *cachedResult:
		return frame(frameJob, r.stl, r.manifest, []byte(r.stlSHA), []byte(r.grade)), nil
	case *sanitizedResult:
		return frame(frameSanitize, r.stl, r.report, []byte(r.sha)), nil
	default:
		return nil, fmt.Errorf("serve: encoding %T, want *cachedResult or *sanitizedResult", v)
	}
}

var errBadFrame = errors.New("serve: malformed cached result frame")

// Decode implements cache.Codec. A structurally invalid payload returns
// an error, which the cache treats as a miss and recomputes.
func (resultCodec) Decode(data []byte) (cache.Value, error) {
	if len(data) < 2 || data[0] != frameVersion {
		return nil, errBadFrame
	}
	switch data[1] {
	case frameJob:
		f, err := splitFields(data[2:], 4)
		if err != nil {
			return nil, err
		}
		return &cachedResult{stl: f[0], manifest: f[1], stlSHA: string(f[2]), grade: string(f[3])}, nil
	case frameSanitize:
		f, err := splitFields(data[2:], 3)
		if err != nil {
			return nil, err
		}
		return &sanitizedResult{stl: f[0], report: f[1], sha: string(f[2])}, nil
	default:
		return nil, errBadFrame
	}
}

// Result is the deliverable of one Service.Do call.
type Result struct {
	// Request is the normalized request that was served.
	Request Request
	// STL is the binary STL artifact.
	STL []byte
	// Manifest is the provenance record as a JSON line.
	Manifest []byte
	// STLSHA256 is the artifact digest (also inside the manifest).
	STLSHA256 string
	// Grade is the artifact's quality classification.
	Grade string
	// Outcome reports how the cache served this call.
	Outcome cache.Outcome
}

// Service runs obfuscation jobs through the content-addressed cache.
// It is the transport-free core of the HTTP server, usable directly
// from tests and benchmarks.
type Service struct {
	cache *cache.Cache
	prof  printer.Profile
}

// NewService builds a memory-only service with the given cache byte
// budget (<= 0 means unbounded) and printer profile.
func NewService(cacheBytes int64, prof printer.Profile) *Service {
	return &Service{cache: cache.New(cacheBytes), prof: prof}
}

// NewTieredService builds a service whose result cache is layered over
// a persistent backing store, so computed artifacts survive process
// restarts.
func NewTieredService(cacheBytes int64, prof printer.Profile, store cache.Store) *Service {
	return &Service{cache: cache.NewTiered(cacheBytes, store, resultCodec{}), prof: prof}
}

// CacheStats snapshots the service's cache counters.
func (s *Service) CacheStats() cache.Stats { return s.cache.Stats() }

// Do serves one request: normalize, address, and either return the
// cached artifact or run the pipeline (coalescing with concurrent
// identical requests). ctx bounds the pipeline run when this caller
// ends up the singleflight leader.
func (s *Service) Do(ctx context.Context, req Request) (*Result, error) {
	norm, err := req.Normalize()
	if err != nil {
		return nil, err
	}
	mRequests.Inc()
	key := norm.CacheKey()
	v, out, err := s.cache.GetOrCompute(ctx, key, func(ctx context.Context) (cache.Value, error) {
		return s.run(ctx, norm)
	})
	if err != nil {
		return nil, err
	}
	r := v.(*cachedResult)
	return &Result{
		Request:   norm,
		STL:       r.stl,
		Manifest:  r.manifest,
		STLSHA256: r.stlSHA,
		Grade:     r.grade,
		Outcome:   out,
	}, nil
}

// run executes the pipeline for a normalized request and freezes the
// outcome into an immutable cache value.
func (s *Service) run(ctx context.Context, norm Request) (cache.Value, error) {
	spec, err := norm.spec()
	if err != nil {
		return nil, err
	}
	gInflight.Add(1)
	t := stJob.Start()
	job, err := core.RunJob(ctx, spec, s.prof)
	t.EndErr(err)
	gInflight.Add(-1)
	if err != nil {
		mFailed.Inc()
		return nil, fmt.Errorf("serve: job %s: %w", norm.CacheKey(), err)
	}
	manifest, err := json.Marshal(job.Provenance)
	if err != nil {
		mFailed.Inc()
		return nil, fmt.Errorf("serve: encoding manifest: %w", err)
	}
	mCompleted.Inc()
	return &cachedResult{
		stl:      job.STL,
		manifest: manifest,
		stlSHA:   job.Provenance.STLSHA256,
		grade:    job.Provenance.Grade,
	}, nil
}
