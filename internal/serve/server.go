package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"obfuscade/internal/cache"
	"obfuscade/internal/cache/diskstore"
	"obfuscade/internal/obs"
	"obfuscade/internal/printer"
	"obfuscade/internal/trace"
)

// maxRequestBytes bounds a job submission body; requests are small
// parameter records, never geometry.
const maxRequestBytes = 1 << 20

// maxBatchJobs bounds one batch submission. A full quality-matrix
// sweep (parts × resolutions × orientations × restore) is well under
// this; anything larger should be split across batches.
const maxBatchJobs = 256

// defaultMaxCompleted bounds the completed-job registry when
// Options.MaxCompleted is zero. Pruned jobs cost one re-submission
// round trip: the result cache makes the re-run a hit.
const defaultMaxCompleted = 4096

// retryAfterSeconds is the backoff hint attached to shed responses.
const retryAfterSeconds = 1

// Options configures a Server.
type Options struct {
	// Addr is the listen address ("127.0.0.1:0" picks a free port).
	Addr string
	// CacheBytes is the in-memory result cache budget; <= 0 means
	// unbounded.
	CacheBytes int64
	// CacheDir, when non-empty, roots the persistent result cache tier:
	// computed artifacts are written through to disk and survive
	// restarts of the server on the same directory.
	CacheDir string
	// DiskCacheBytes is the disk tier's byte budget; <= 0 means
	// unbounded. Ignored when CacheDir is empty.
	DiskCacheBytes int64
	// MaxQueue bounds the number of jobs admitted but not yet finished.
	// A submission that would start a job past the bound is shed with
	// 429 + Retry-After; joining an already-running job is always
	// admitted (it adds no load). <= 0 means unbounded.
	MaxQueue int
	// MaxCompleted bounds the finished-job registry: once more than
	// this many completed jobs are retained, the oldest are pruned
	// (their artifacts stay in the result cache; re-submitting is a
	// cache hit). 0 means defaultMaxCompleted; < 0 means unbounded.
	MaxCompleted int
	// JobTimeout is the default per-job pipeline deadline; <= 0 means
	// no default (a request may still set timeout_ms).
	JobTimeout time.Duration
	// Profile is the printer profile; the zero value selects the
	// Dimension Elite.
	Profile printer.Profile
	// ManifestOut, when non-nil, receives one NDJSON provenance line
	// per completed job at shutdown.
	ManifestOut io.Writer
	// AccessLog, when non-nil, receives one NDJSON access-log line per
	// HTTP request (see AccessEntry). Entries flush as they are written
	// and once more on graceful drain.
	AccessLog io.Writer
}

// jobState is the lifecycle of a submitted job.
type jobState string

const (
	stateRunning jobState = "running"
	stateDone    jobState = "done"
	stateFailed  jobState = "failed"
)

// job is one submitted request, keyed by its cache key so identical
// submissions share an entry.
type job struct {
	id      string
	req     Request
	done    chan struct{} // closed when out/err are set
	out     *jobOutcome
	err     error
	created time.Time

	// Trace identity captured from the submitting request: jobs outlive
	// their HTTP request (they run under the server's root context), so
	// the propagated context is frozen here at admission and re-adopted
	// in runJob. A joined run keeps the identity of the submission that
	// started it.
	traceID    string
	parentSpan uint64
	reqID      string
}

// jobOutcome is what a finished job keeps: what its status, its
// manifest and the drain's manifest flush need, about 1 KB. The STL bytes
// stay in the result cache alone, so the finished-job registry holds no
// artifact outside the cache budget; GET /jobs/{id}/stl reads them back
// through the cache.
type jobOutcome struct {
	outcome  cache.Outcome
	grade    string
	stlSHA   string
	stlBytes int
	manifest []byte
}

// jobStatus is the JSON the status endpoints return.
type jobStatus struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Outcome   string `json:"outcome,omitempty"`
	Grade     string `json:"grade,omitempty"`
	STLSHA256 string `json:"stl_sha256,omitempty"`
	STLBytes  int    `json:"stl_bytes,omitempty"`
	Error     string `json:"error,omitempty"`
	STLURL    string `json:"stl_url,omitempty"`
	Manifest  string `json:"manifest_url,omitempty"`
}

// Server is the HTTP job service. Job routes and the debug surface
// (/metrics, /trace, /debug/pprof/) share one mux on one port.
type Server struct {
	svc       *Service
	disk      *diskstore.Store // nil when serving memory-only
	http      *trace.DebugServer
	accessLog *AccessLogger // nil when access logging is off

	rootCtx      context.Context
	cancelJobs   context.CancelFunc
	jobTimeout   time.Duration
	manifestW    io.Writer
	maxQueue     int
	maxCompleted int

	mu        sync.Mutex
	jobs      map[string]*job
	completed []*job // finished jobs, oldest first, pruned past maxCompleted
	inflight  int    // jobs admitted but not yet finished
	draining  bool
	wg        sync.WaitGroup
}

// Start builds the service, mounts the job routes on the shared debug
// mux, and binds the listener synchronously. When Options.CacheDir is
// set the result cache is tiered over a disk store opened (or resumed)
// there.
func Start(opts Options) (*Server, error) {
	prof := opts.Profile
	if prof.Name == "" {
		prof = printer.DimensionElite()
	}
	maxCompleted := opts.MaxCompleted
	if maxCompleted == 0 {
		maxCompleted = defaultMaxCompleted
	}
	rootCtx, cancel := context.WithCancel(context.Background())
	s := &Server{
		rootCtx:      rootCtx,
		cancelJobs:   cancel,
		jobTimeout:   opts.JobTimeout,
		manifestW:    opts.ManifestOut,
		maxQueue:     opts.MaxQueue,
		maxCompleted: maxCompleted,
		jobs:         map[string]*job{},
	}
	if opts.CacheDir != "" {
		store, err := diskstore.Open(opts.CacheDir, opts.DiskCacheBytes)
		if err != nil {
			cancel()
			return nil, err
		}
		s.disk = store
		s.svc = NewTieredService(opts.CacheBytes, prof, store)
	} else {
		s.svc = NewService(opts.CacheBytes, prof)
	}
	if opts.AccessLog != nil {
		s.accessLog = NewAccessLogger(opts.AccessLog)
	}
	mux := trace.NewDebugMux(obs.Default(), trace.Default())
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("POST /jobs/batch", s.handleBatch)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/stl", s.handleSTL)
	mux.HandleFunc("GET /jobs/{id}/manifest", s.handleManifest)
	mux.HandleFunc("POST /sanitize", s.handleSanitize)
	mux.HandleFunc("GET /sanitize/{id}/stl", s.handleSanitizeSTL)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	ds, err := trace.StartServer(opts.Addr, WithObservability(mux, "serve", s.accessLog))
	if err != nil {
		cancel()
		if s.disk != nil {
			s.disk.Close()
		}
		return nil, err
	}
	s.http = ds
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.http.Addr() }

// URL returns the server's base URL.
func (s *Server) URL() string { return s.http.URL() }

// Service exposes the underlying job service (tests and benchmarks).
func (s *Server) Service() *Service { return s.svc }

// DiskStats snapshots the disk cache tier; ok is false when the server
// runs memory-only.
func (s *Server) DiskStats() (diskstore.Stats, bool) {
	if s.disk == nil {
		return diskstore.Stats{}, false
	}
	return s.disk.Stats(), true
}

// Close drops everything immediately: in-flight jobs are cancelled and
// connections closed. Use Shutdown for a graceful drain.
func (s *Server) Close() error {
	s.cancelJobs()
	err := s.http.Close()
	if s.disk != nil {
		if derr := s.disk.Close(); err == nil {
			err = derr
		}
	}
	return err
}

// Shutdown drains the server: new submissions are refused, in-flight
// jobs run to completion or until ctx expires (then they are
// cancelled), completed manifests are flushed to Options.ManifestOut,
// and finally the HTTP listener closes.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-ctx.Done():
		// Out of patience: cancel the root context so the context-aware
		// pipeline stages abort, then wait for the workers to unwind.
		s.cancelJobs()
		<-drained
	}

	var flushErr error
	if s.manifestW != nil {
		flushErr = s.flushManifests()
	}
	if err := s.http.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		if s.disk != nil {
			s.disk.Close()
		}
		return err
	}
	s.cancelJobs()
	if err := s.accessLog.Close(); err != nil && flushErr == nil {
		flushErr = err
	}
	if s.disk != nil {
		// Compacts the atime journal so the next boot restores recency.
		if err := s.disk.Close(); err != nil && flushErr == nil {
			flushErr = err
		}
	}
	return flushErr
}

// flushManifests writes one NDJSON provenance line per completed job,
// in submission order.
func (s *Server) flushManifests() error {
	s.mu.Lock()
	done := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		select {
		case <-j.done:
			if j.err == nil {
				done = append(done, j)
			}
		default:
		}
	}
	s.mu.Unlock()
	sort.Slice(done, func(a, b int) bool { return done[a].created.Before(done[b].created) })
	bw := bufio.NewWriter(s.manifestW)
	for _, j := range done {
		bw.Write(j.out.manifest)
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// submit registers (or joins) the job for a normalized request. The
// bool reports whether this call started a new run. ctx supplies the
// trace identity a fresh run inherits.
func (s *Server) submit(ctx context.Context, norm Request) (*job, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	jobs, started, err := s.submitLocked(ctx, []Request{norm})
	if err != nil {
		return nil, false, err
	}
	return jobs[0], started, nil
}

// submitLocked atomically admits a set of normalized requests: each
// either joins an in-flight run (always admitted — it adds no load) or
// starts a new one, counted against the admission bound. Admission is
// all-or-nothing: if starting the new runs would push the in-flight
// queue past maxQueue, nothing is started and the whole set is shed.
// The bool reports whether any new run started.
func (s *Server) submitLocked(ctx context.Context, norms []Request) ([]*job, bool, error) {
	if s.draining {
		return nil, false, errDraining
	}
	jobs := make([]*job, len(norms))
	var fresh []*job
	batch := map[string]*job{} // dedupe identical requests within one call
	for i, norm := range norms {
		id := string(norm.CacheKey())
		if j, ok := batch[id]; ok {
			jobs[i] = j
			continue
		}
		if j, ok := s.jobs[id]; ok {
			select {
			case <-j.done:
				// Finished: fall through and re-run. The cache makes the
				// re-run a hit, so this only refreshes the job entry.
			default:
				jobs[i] = j // join the in-flight run
				batch[id] = j
				continue
			}
		}
		j := &job{
			id: id, req: norm, done: make(chan struct{}), created: time.Now(),
			traceID:    trace.TraceIDFrom(ctx),
			parentSpan: trace.ContextSpanID(ctx),
			reqID:      trace.RequestIDFrom(ctx),
		}
		jobs[i] = j
		batch[id] = j
		fresh = append(fresh, j)
	}
	if len(fresh) == 0 {
		return jobs, false, nil
	}
	if s.maxQueue > 0 && s.inflight+len(fresh) > s.maxQueue {
		mShed.Inc()
		return nil, false, errOverloaded
	}
	for _, j := range fresh {
		s.jobs[j.id] = j
		s.inflight++
		s.wg.Add(1)
		go s.runJob(j)
	}
	return jobs, true, nil
}

var (
	errDraining   = errors.New("serve: draining, not accepting jobs")
	errOverloaded = errors.New("serve: admission queue full, retry later")
)

// runJob executes one job under the root context and the per-job
// deadline, then publishes the result and retires the job into the
// bounded completed registry. The submitting request's trace identity
// is re-adopted here — the job outlives its HTTP request, so the
// pipeline's run/key/stage spans still descend from the caller's span
// (the router's proxy span in a cluster) in a merged trace.
func (s *Server) runJob(j *job) {
	defer s.wg.Done()
	ctx := s.rootCtx
	if j.traceID != "" {
		ctx = trace.WithRemoteParent(ctx, trace.TraceContext{TraceID: j.traceID, Parent: j.parentSpan})
	}
	if j.reqID != "" {
		ctx = trace.WithRequestID(ctx, j.reqID)
	}
	ctx, span := trace.StartSpan(ctx, "serve", "job", trace.A("key", j.id))
	defer span.End()
	if t := s.effectiveTimeout(j.req); t > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, t)
		defer cancel()
	}
	res, err := s.svc.Do(ctx, j.req)
	var out *jobOutcome
	if res != nil {
		span.SetArg("outcome", res.Outcome.String())
		out = &jobOutcome{
			outcome:  res.Outcome,
			grade:    res.Grade,
			stlSHA:   res.STLSHA256,
			stlBytes: len(res.STL),
			manifest: res.Manifest,
		}
	}
	// End before publishing: a waiter unblocked by close(j.done) must
	// find the job span already recorded.
	span.End()
	s.mu.Lock()
	j.out, j.err = out, err
	s.inflight--
	s.completed = append(s.completed, j)
	s.pruneCompletedLocked()
	s.mu.Unlock()
	close(j.done)
}

// pruneCompletedLocked bounds the finished-job registry: the oldest
// completed jobs past maxCompleted leave the id map, so a long-running
// server's memory stays proportional to the retention cap instead of
// the total number of distinct requests it has ever served. A pruned
// id simply 404s; re-submitting it is a result-cache hit.
func (s *Server) pruneCompletedLocked() {
	if s.maxCompleted <= 0 {
		return
	}
	for len(s.completed) > s.maxCompleted {
		old := s.completed[0]
		s.completed[0] = nil // release the *job promptly
		s.completed = s.completed[1:]
		// A re-submission may have replaced the map entry with a newer
		// run of the same id; only evict the entry this job owns.
		if cur, ok := s.jobs[old.id]; ok && cur == old {
			delete(s.jobs, old.id)
		}
	}
	// Re-slicing walks the backing array forward; copy back once the
	// dead prefix dominates so the array does not grow without bound.
	if cap(s.completed) > 2*len(s.completed) && cap(s.completed) > 64 {
		s.completed = append([]*job(nil), s.completed...)
	}
}

// effectiveTimeout resolves a job's deadline: the request's timeout_ms
// when set, capped by the server default.
func (s *Server) effectiveTimeout(req Request) time.Duration {
	t := s.jobTimeout
	if req.TimeoutMS > 0 {
		rt := time.Duration(req.TimeoutMS) * time.Millisecond
		if t <= 0 || rt < t {
			t = rt
		}
	}
	return t
}

// lookup returns the job entry for an id.
func (s *Server) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// status snapshots a job into its wire form.
func (s *Server) status(j *job) jobStatus {
	st := jobStatus{ID: j.id, State: string(stateRunning)}
	select {
	case <-j.done:
	default:
		return st
	}
	s.mu.Lock()
	out, err := j.out, j.err
	s.mu.Unlock()
	if err != nil {
		st.State = string(stateFailed)
		st.Error = err.Error()
		return st
	}
	st.State = string(stateDone)
	st.Outcome = out.outcome.String()
	st.Grade = out.grade
	st.STLSHA256 = out.stlSHA
	st.STLBytes = out.stlBytes
	st.STLURL = "/jobs/" + j.id + "/stl"
	st.Manifest = "/jobs/" + j.id + "/manifest"
	return st
}

// annotateJobOutcome records a finished job's cache outcome on the
// request's access-log entry.
func (s *Server) annotateJobOutcome(ctx context.Context, j *job) {
	s.mu.Lock()
	out := j.out
	s.mu.Unlock()
	if out != nil {
		AnnotateOutcome(ctx, out.outcome.String())
	}
}

// annotateBatchItem records one batch item's cache outcome as a
// per-item access-log line (request ID "<batch id>#<seq>"); a failed
// item logs "failed" so the batch's shape is still reconstructible from
// the log alone.
func (s *Server) annotateBatchItem(ctx context.Context, j *job) {
	s.mu.Lock()
	out, err := j.out, j.err
	s.mu.Unlock()
	switch {
	case err != nil:
		AnnotateBatchItem(ctx, "failed")
	case out != nil:
		AnnotateBatchItem(ctx, out.outcome.String())
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// parseWait interprets the ?wait query parameter with strconv.ParseBool
// semantics: absent means async, "1"/"true"/... block, "0"/"false"/...
// are explicitly async, anything else is a client error. (A previous
// version treated any non-empty value as true, so ?wait=0 blocked.)
func parseWait(r *http.Request) (bool, error) {
	raw := r.URL.Query().Get("wait")
	if raw == "" {
		return false, nil
	}
	wait, err := strconv.ParseBool(raw)
	if err != nil {
		return false, fmt.Errorf("serve: wait parameter %q is not a boolean", raw)
	}
	return wait, nil
}

// writeSubmitError maps a submission failure onto its status code:
// draining → 503, queue full → 429 with a Retry-After hint.
func writeSubmitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errDraining):
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, errOverloaded):
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		writeError(w, http.StatusTooManyRequests, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

// handleSubmit accepts a job request. By default it returns 202 with
// the job's id immediately; ?wait=1 (or any ParseBool truth) blocks
// until the job finishes and returns the final status.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	wait, err := parseWait(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: decoding request: %w", err))
		return
	}
	norm, err := req.Normalize()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	j, _, err := s.submit(r.Context(), norm)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	if !wait {
		writeJSON(w, http.StatusAccepted, s.status(j))
		return
	}
	select {
	case <-j.done:
	case <-r.Context().Done():
		writeError(w, http.StatusRequestTimeout, r.Context().Err())
		return
	}
	s.annotateJobOutcome(r.Context(), j)
	st := s.status(j)
	if st.State == string(stateFailed) {
		writeJSON(w, http.StatusInternalServerError, st)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// batchRequest is the body of POST /jobs/batch: a set of job requests
// admitted atomically — a whole quality-matrix sweep in one round trip.
type batchRequest struct {
	Jobs []Request `json:"jobs"`
}

// batchResponse answers a batch with one status per submitted job, in
// submission order.
type batchResponse struct {
	Results []jobStatus `json:"results"`
}

// handleBatch accepts a set of jobs in one request, fans them out on
// the worker pool (identical entries coalesce onto one run), waits for
// all of them, and returns per-item statuses in submission order.
// Admission is atomic: either every new run fits under the queue bound
// or the whole batch is shed with 429 + Retry-After, leaving in-flight
// jobs untouched.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	var batch batchRequest
	if err := dec.Decode(&batch); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: decoding batch: %w", err))
		return
	}
	if len(batch.Jobs) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("serve: empty batch"))
		return
	}
	if len(batch.Jobs) > maxBatchJobs {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("serve: batch of %d jobs exceeds the limit of %d", len(batch.Jobs), maxBatchJobs))
		return
	}
	norms := make([]Request, len(batch.Jobs))
	for i, req := range batch.Jobs {
		norm, err := req.Normalize()
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("serve: batch job %d: %w", i, err))
			return
		}
		norms[i] = norm
	}
	mBatches.Inc()
	mBatchJobs.Add(int64(len(norms)))

	s.mu.Lock()
	jobs, _, err := s.submitLocked(r.Context(), norms)
	s.mu.Unlock()
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	resp := batchResponse{Results: make([]jobStatus, len(jobs))}
	for i, j := range jobs {
		select {
		case <-j.done:
		case <-r.Context().Done():
			writeError(w, http.StatusRequestTimeout, r.Context().Err())
			return
		}
		s.annotateBatchItem(r.Context(), j)
		resp.Results[i] = s.status(j)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("serve: unknown job"))
		return
	}
	writeJSON(w, http.StatusOK, s.status(j))
}

// finished fetches a finished job, translating lifecycle into status
// codes: 404 unknown, 409 still running, 500 failed.
func (s *Server) finished(w http.ResponseWriter, r *http.Request) (*job, *jobOutcome, bool) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("serve: unknown job"))
		return nil, nil, false
	}
	select {
	case <-j.done:
	default:
		writeError(w, http.StatusConflict, errors.New("serve: job still running"))
		return nil, nil, false
	}
	s.mu.Lock()
	out, err := j.out, j.err
	s.mu.Unlock()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return nil, nil, false
	}
	return j, out, true
}

// handleSTL serves a finished job's STL. The job keeps no bytes, so they
// come back through the result cache: memory, then disk, else a
// deterministic re-run of the job under the job's own deadline. A re-run
// is admitted like a sanitize run, so a full queue sheds it (429) and a
// draining server refuses it (503). The access log records the lookup's
// outcome. Like GET /sanitize/{id}/stl it is a read, not a request: it
// counts no serve.requests.
func (s *Server) handleSTL(w http.ResponseWriter, r *http.Request) {
	j, _, ok := s.finished(w, r)
	if !ok {
		return
	}
	ctx := r.Context()
	if t := s.effectiveTimeout(j.req); t > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, t)
		defer cancel()
	}
	v, out, err := s.svc.cache.GetOrCompute(ctx, j.req.CacheKey(), func(ctx context.Context) (cache.Value, error) {
		if err := s.admitRun(); err != nil {
			return nil, err
		}
		defer s.releaseRun()
		return s.svc.run(ctx, j.req)
	})
	if err != nil {
		if errors.Is(err, errDraining) || errors.Is(err, errOverloaded) {
			writeSubmitError(w, err)
			return
		}
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	res := v.(*cachedResult)
	AnnotateOutcome(r.Context(), out.String())
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", `attachment; filename="`+j.req.Part+`.stl"`)
	w.Header().Set("X-Stl-Sha256", res.stlSHA)
	w.Write(res.stl)
}

func (s *Server) handleManifest(w http.ResponseWriter, r *http.Request) {
	_, out, ok := s.finished(w, r)
	if !ok {
		return
	}
	AnnotateOutcome(r.Context(), out.outcome.String())
	w.Header().Set("Content-Type", "application/json")
	w.Write(out.manifest)
	w.Write([]byte("\n"))
}

// handleHealth reports liveness for load balancers. A draining server
// answers 503 so traffic is routed away while in-flight jobs finish —
// a 200 here once kept balancers pointed at shutting-down instances.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	inflight := s.inflight
	s.mu.Unlock()
	body := map[string]any{
		"status":   map[bool]string{false: "ok", true: "draining"}[draining],
		"inflight": inflight,
		"cache":    s.svc.CacheStats(),
	}
	if st, ok := s.DiskStats(); ok {
		body["disk"] = st
	}
	code := http.StatusOK
	if draining {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, body)
}
