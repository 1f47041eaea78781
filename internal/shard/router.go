package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"obfuscade/internal/obs"
	"obfuscade/internal/serve"
	"obfuscade/internal/trace"
)

// maxRequestBytes mirrors the serve tier's submission bound: requests
// are small parameter records, never geometry.
const maxRequestBytes = 1 << 20

// Defaults for RouterOptions' zero values.
const (
	// DefaultHedgeAfter is the read-latency budget before a hedge fires
	// at the next ring replica: generous against a warm cache hit
	// (microseconds to milliseconds) yet far below a pipeline run, so
	// hedges fire on genuinely stuck shards, not on routine work.
	DefaultHedgeAfter = 250 * time.Millisecond
	// DefaultProbeInterval is the /healthz polling period.
	DefaultProbeInterval = 1 * time.Second
	// DefaultProbeTimeout bounds one health probe round trip.
	DefaultProbeTimeout = 2 * time.Second
	// DefaultScrapeTimeout bounds one shard scrape during metrics
	// federation.
	DefaultScrapeTimeout = 2 * time.Second
)

var (
	mRequests    = obs.Default().Counter("router.requests")
	mBatchReqs   = obs.Default().Counter("router.batch.requests")
	mSubBatches  = obs.Default().Counter("router.batch.subbatches")
	mProxyErrors = obs.Default().Counter("router.proxy.errors")
	mHedgeFired  = obs.Default().Counter("router.hedge.fired")
	mHedgeWon    = obs.Default().Counter("router.hedge.won")
	mEjected     = obs.Default().Counter("router.shard.ejected")
	mRejoined    = obs.Default().Counter("router.shard.rejoined")
	gHealthy     = obs.Default().Gauge("router.shards.healthy")
)

// RouterOptions configures a Router.
type RouterOptions struct {
	// Addr is the listen address ("127.0.0.1:0" picks a free port).
	Addr string
	// Shards are the serve-tier instances to route across, as host:port
	// addresses (a http:// prefix is accepted and stripped).
	Shards []string
	// VirtualNodes is the per-shard vnode count (<= 0 means
	// DefaultVirtualNodes).
	VirtualNodes int
	// HedgeAfter is how long a read waits on the owning shard before a
	// duplicate fires at the next ring replica; first success wins and
	// the loser is cancelled. 0 means DefaultHedgeAfter; negative
	// disables hedging.
	HedgeAfter time.Duration
	// ProbeInterval is the /healthz polling period (0 means
	// DefaultProbeInterval; negative disables active probing — shards
	// are then ejected only on proxy failures and never rejoin).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe round trip (<= 0 means
	// DefaultProbeTimeout).
	ProbeTimeout time.Duration
	// ScrapeTimeout bounds one shard scrape of the /cluster/metrics
	// federation endpoints (<= 0 means DefaultScrapeTimeout). A shard
	// that cannot answer within it is reported absent and the federated
	// snapshot flagged stale rather than blocking the whole scrape.
	ScrapeTimeout time.Duration
	// AccessLog, when non-nil, receives one NDJSON access-log line per
	// routed request (serve.AccessEntry with role "router").
	AccessLog io.Writer
	// Client overrides the proxy HTTP client (tests); nil builds one
	// with connection pooling per shard.
	Client *http.Client
}

// Router is the thin scale-out tier in front of N serve instances: it
// owns no cache and runs no pipeline, it just places every job key on
// its owning shard via the consistent-hash ring and moves bytes. It
// shares the debug surface (/metrics, /trace, /debug/pprof) on its
// port, so a request is attributable end to end: router span → shard
// span → pipeline stages.
type Router struct {
	ring        *Ring
	client      *http.Client
	http        *trace.DebugServer
	accessLog   *serve.AccessLogger // nil when access logging is off
	hedgeAfter  time.Duration
	probeEvery  time.Duration
	probeLimit  time.Duration
	scrapeLimit time.Duration

	probeCancel context.CancelFunc
	probeDone   chan struct{}

	mu        sync.Mutex
	down      map[string]bool      // shards currently ejected from routing
	lastProbe map[string]time.Time // most recent health probe per shard
}

// StartRouter builds the ring, mounts the proxy routes on the shared
// debug mux, binds the listener synchronously, and begins health
// probing. All shards start as routable; the first probe round corrects
// that within ProbeInterval.
func StartRouter(opts RouterOptions) (*Router, error) {
	members := make([]string, len(opts.Shards))
	for i, s := range opts.Shards {
		members[i] = trimScheme(s)
	}
	ring, err := NewRing(members, opts.VirtualNodes)
	if err != nil {
		return nil, err
	}
	hedge := opts.HedgeAfter
	if hedge == 0 {
		hedge = DefaultHedgeAfter
	}
	probeEvery := opts.ProbeInterval
	if probeEvery == 0 {
		probeEvery = DefaultProbeInterval
	}
	probeLimit := opts.ProbeTimeout
	if probeLimit <= 0 {
		probeLimit = DefaultProbeTimeout
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	scrapeLimit := opts.ScrapeTimeout
	if scrapeLimit <= 0 {
		scrapeLimit = DefaultScrapeTimeout
	}
	rt := &Router{
		ring:        ring,
		client:      client,
		hedgeAfter:  hedge,
		probeEvery:  probeEvery,
		probeLimit:  probeLimit,
		scrapeLimit: scrapeLimit,
		down:        map[string]bool{},
		lastProbe:   map[string]time.Time{},
		probeDone:   make(chan struct{}),
	}
	if opts.AccessLog != nil {
		rt.accessLog = serve.NewAccessLogger(opts.AccessLog)
	}
	gHealthy.Set(int64(len(ring.Members())))

	mux := trace.NewDebugMux(obs.Default(), trace.Default())
	mux.HandleFunc("POST /jobs", rt.handleSubmit)
	mux.HandleFunc("POST /jobs/batch", rt.handleBatch)
	mux.HandleFunc("GET /jobs/{id}", rt.handleRead)
	mux.HandleFunc("GET /jobs/{id}/stl", rt.handleRead)
	mux.HandleFunc("GET /jobs/{id}/manifest", rt.handleRead)
	mux.HandleFunc("POST /sanitize", rt.handleSanitize)
	mux.HandleFunc("GET /sanitize/{id}/stl", rt.handleRead)
	mux.HandleFunc("GET /healthz", rt.handleHealth)
	mux.HandleFunc("GET /cluster/metrics.json", rt.handleClusterMetricsJSON)
	mux.HandleFunc("GET /cluster/metrics", rt.handleClusterMetricsProm)
	mux.HandleFunc("GET /cluster/ring", rt.handleClusterRing)
	ds, err := trace.StartServer(opts.Addr, serve.WithObservability(mux, "router", rt.accessLog))
	if err != nil {
		return nil, err
	}
	rt.http = ds

	probeCtx, cancel := context.WithCancel(context.Background())
	rt.probeCancel = cancel
	if opts.ProbeInterval >= 0 {
		go rt.probeLoop(probeCtx)
	} else {
		close(rt.probeDone)
	}
	return rt, nil
}

func trimScheme(s string) string {
	for _, p := range []string{"http://", "https://"} {
		if len(s) > len(p) && s[:len(p)] == p {
			return s[len(p):]
		}
	}
	return s
}

// Addr returns the bound listen address.
func (rt *Router) Addr() string { return rt.http.Addr() }

// URL returns the router's base URL.
func (rt *Router) URL() string { return rt.http.URL() }

// Close stops health probing and the listener. The shards themselves
// are independent processes and are left running.
func (rt *Router) Close() error {
	rt.probeCancel()
	<-rt.probeDone
	err := rt.http.Close()
	rt.accessLog.Close()
	rt.client.CloseIdleConnections()
	return err
}

// Shutdown stops probing and drains the listener gracefully, flushing
// the access log once the last in-flight request has been logged.
func (rt *Router) Shutdown(ctx context.Context) error {
	rt.probeCancel()
	<-rt.probeDone
	err := rt.http.Shutdown(ctx)
	if ferr := rt.accessLog.Close(); err == nil {
		err = ferr
	}
	rt.client.CloseIdleConnections()
	return err
}

// ---- shard health ----------------------------------------------------

// probeLoop polls every shard's /healthz: 200 keeps (or rejoins) it on
// the routing table, anything else — including the serve tier's 503
// "draining" — ejects it until it answers 200 again.
func (rt *Router) probeLoop(ctx context.Context) {
	defer close(rt.probeDone)
	t := time.NewTicker(rt.probeEvery)
	defer t.Stop()
	for {
		rt.probeOnce(ctx)
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

func (rt *Router) probeOnce(ctx context.Context) {
	for _, m := range rt.ring.Members() {
		pctx, cancel := context.WithTimeout(ctx, rt.probeLimit)
		resp, err := rt.send(pctx, http.MethodGet, m, "/healthz", "", nil)
		healthy := err == nil && resp.StatusCode == http.StatusOK
		if resp != nil {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
		}
		cancel()
		if ctx.Err() != nil {
			return
		}
		rt.mu.Lock()
		rt.lastProbe[m] = time.Now()
		rt.mu.Unlock()
		rt.setHealth(m, healthy)
	}
}

// setHealth records a shard's routability, counting eject/rejoin
// transitions exactly once per edge.
func (rt *Router) setHealth(shard string, healthy bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if healthy == !rt.down[shard] {
		return
	}
	if healthy {
		delete(rt.down, shard)
		mRejoined.Inc()
	} else {
		rt.down[shard] = true
		mEjected.Inc()
	}
	gHealthy.Set(int64(len(rt.ring.Members()) - len(rt.down)))
}

// noteFailure ejects a shard after a transport-level proxy failure —
// passive detection, so a crashed shard stops receiving traffic before
// the next probe round. The probe loop rejoins it when it recovers.
func (rt *Router) noteFailure(shard string, err error) {
	mProxyErrors.Inc()
	if errors.Is(err, context.Canceled) {
		// A cancelled hedge loser or a client that went away says nothing
		// about the shard's health.
		return
	}
	rt.setHealth(shard, false)
}

// aliveOwners returns up to n routable members in ring preference
// order for key. When every owner is ejected it falls back to the full
// preference list: routing into a possibly-dead shard and failing over
// on error beats refusing traffic on stale health data.
func (rt *Router) aliveOwners(key string, n int) []string {
	all := rt.ring.Owners(key, 0)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]string, 0, n)
	for _, m := range all {
		if !rt.down[m] {
			out = append(out, m)
			if len(out) == n {
				break
			}
		}
	}
	if len(out) == 0 {
		if n > len(all) {
			n = len(all)
		}
		out = all[:n]
	}
	return out
}

// ---- proxy plumbing --------------------------------------------------

// send issues one proxied request to a shard, stamping it with the
// trace context and request ID carried by ctx so the shard's spans and
// access-log line join the router's under one trace. The caller owns
// the response body.
func (rt *Router) send(ctx context.Context, method, shard, path, query string, body []byte) (*http.Response, error) {
	u := "http://" + shard + path
	if query != "" {
		u += "?" + query
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if h := trace.OutgoingTraceHeader(ctx); h != "" {
		req.Header.Set(trace.HeaderTrace, h)
	}
	if id := trace.RequestIDFrom(ctx); id != "" {
		req.Header.Set(trace.HeaderRequestID, id)
	}
	return rt.client.Do(req)
}

// requestIDHeader is trace.HeaderRequestID in the canonical form
// http.Header stores it under.
var requestIDHeader = http.CanonicalHeaderKey(trace.HeaderRequestID)

// copyResponse relays a shard response: status, headers (including
// Retry-After on a shed 429 and X-Stl-Sha256 on artifacts) and body.
// The shard's X-Request-ID echo is dropped — the router's middleware
// already set the same ID on the response, and for a hedged read the
// winner's echo would otherwise duplicate the header.
func copyResponse(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		if k == requestIDHeader {
			continue
		}
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// ---- submissions -----------------------------------------------------

// handleSubmit proxies POST /jobs to the owning shard. The body is
// decoded only to compute the placement key; the original bytes are
// forwarded so the shard sees exactly what the client sent. A shard
// that cannot be reached (transport error) or is draining (503) is
// ejected and the next ring replica tried, so a rolling restart drains
// without bouncing client requests.
func (rt *Router) handleSubmit(w http.ResponseWriter, r *http.Request) {
	mRequests.Inc()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("shard: reading request: %w", err))
		return
	}
	norm, err := normalizeBody(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	key := string(norm.CacheKey())
	ctx, sp := trace.StartSpan(r.Context(), "router", "jobs", trace.A("key", key))
	defer sp.End()
	resp, shard, err := rt.forwardWrite(ctx, "/jobs", r.URL.RawQuery, body, key)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	sp.SetArg("shard", shard)
	serve.AnnotateShard(ctx, shard)
	copyResponse(w, resp)
}

// handleSanitize proxies POST /sanitize to the shard that owns the
// body's content address. The placement key is the serve tier's own
// SanitizeKey, so a repeated upload of the same file lands on the
// shard that already caches its sanitized artifact, and the returned
// stl_url resolves through the router's hedged-read path.
func (rt *Router) handleSanitize(w http.ResponseWriter, r *http.Request) {
	mRequests.Inc()
	quantum, err := serve.ParseSanitizeQuantum(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, serve.MaxSanitizeBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("shard: sanitize body exceeds %d bytes", serve.MaxSanitizeBytes))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("shard: reading sanitize body: %w", err))
		return
	}
	key := string(serve.SanitizeKey(body, quantum))
	ctx, sp := trace.StartSpan(r.Context(), "router", "sanitize", trace.A("key", key))
	defer sp.End()
	resp, shard, err := rt.forwardWrite(ctx, "/sanitize", r.URL.RawQuery, body, key)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	sp.SetArg("shard", shard)
	serve.AnnotateShard(ctx, shard)
	copyResponse(w, resp)
}

// normalizeBody parses a submission exactly like the serve tier does,
// yielding the canonical request whose cache key is the placement key.
func normalizeBody(body []byte) (serve.Request, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req serve.Request
	if err := dec.Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		return serve.Request{}, fmt.Errorf("shard: decoding request: %w", err)
	}
	return req.Normalize()
}

// forwardWrite sends a submission to the key's owner, failing over
// clockwise around the ring on transport errors and 503s.
func (rt *Router) forwardWrite(ctx context.Context, path, query string, body []byte, key string) (*http.Response, string, error) {
	cands := rt.aliveOwners(key, len(rt.ring.Members()))
	for _, shard := range cands {
		resp, err := rt.send(ctx, http.MethodPost, shard, path, query, body)
		if err != nil {
			if ctx.Err() != nil {
				return nil, "", ctx.Err()
			}
			rt.noteFailure(shard, err)
			continue
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			// Draining: take it out of rotation and try the next replica.
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			rt.setHealth(shard, false)
			continue
		}
		return resp, shard, nil
	}
	return nil, "", errors.New("shard: no routable shard for key " + key)
}

// ---- batch split / merge ---------------------------------------------

// batchRequest and batchResponse mirror the serve tier's wire format;
// item payloads stay opaque (json.RawMessage) so the router never has
// to re-encode a shard's answer.
type batchRequest struct {
	Jobs []serve.Request `json:"jobs"`
}

type rawBatchResponse struct {
	Results []json.RawMessage `json:"results"`
}

// subBatch is the slice of one incoming batch owned by a single shard.
type subBatch struct {
	shard   string
	jobs    []serve.Request
	indexes []int // positions of jobs in the original submission order
}

// handleBatch splits a quality-matrix sweep across the ring: each job
// goes to its key's owner, the per-shard sub-batches run concurrently,
// and the per-item statuses are reassembled in submission order. If any
// shard sheds its sub-batch (429), the whole batch answers 429 with the
// largest Retry-After hint — the client retries the sweep as one unit.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	mRequests.Inc()
	mBatchReqs.Inc()
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	var batch batchRequest
	if err := dec.Decode(&batch); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("shard: decoding batch: %w", err))
		return
	}
	if len(batch.Jobs) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("shard: empty batch"))
		return
	}
	ctx, sp := trace.StartSpan(r.Context(), "router", "batch",
		trace.A("jobs", strconv.Itoa(len(batch.Jobs))))
	defer sp.End()

	// Split: normalize each job, place it, and group by owner while
	// remembering where each job sat in the submission order.
	subs := map[string]*subBatch{}
	var order []string // deterministic fan-out order
	for i, job := range batch.Jobs {
		norm, err := job.Normalize()
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("shard: batch job %d: %w", i, err))
			return
		}
		owners := rt.aliveOwners(string(norm.CacheKey()), 1)
		shard := owners[0]
		sb, ok := subs[shard]
		if !ok {
			sb = &subBatch{shard: shard}
			subs[shard] = sb
			order = append(order, shard)
		}
		sb.jobs = append(sb.jobs, norm)
		sb.indexes = append(sb.indexes, i)
	}
	sp.SetArg("subbatches", strconv.Itoa(len(order)))
	mSubBatches.Add(int64(len(order)))

	// Fan out one sub-batch per shard.
	type subResult struct {
		sb         *subBatch
		status     int
		retryAfter int
		results    []json.RawMessage
		err        error
	}
	resCh := make(chan subResult, len(order))
	for _, shard := range order {
		go func(sb *subBatch) {
			res := subResult{sb: sb}
			defer func() { resCh <- res }()
			body, err := json.Marshal(batchRequest{Jobs: sb.jobs})
			if err != nil {
				res.err = err
				return
			}
			// Sub-batch jobs share an owner but failover can move the
			// whole sub-batch; any key in it names the same candidates.
			resp, _, err := rt.forwardWriteBatch(ctx, body, sb)
			if err != nil {
				res.err = err
				return
			}
			defer resp.Body.Close()
			res.status = resp.StatusCode
			if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
				res.retryAfter = ra
			}
			if resp.StatusCode != http.StatusOK {
				io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
				return
			}
			var raw rawBatchResponse
			if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
				res.err = fmt.Errorf("shard: decoding sub-batch from %s: %w", sb.shard, err)
				return
			}
			if len(raw.Results) != len(sb.jobs) {
				res.err = fmt.Errorf("shard: %s answered %d results for %d jobs",
					sb.shard, len(raw.Results), len(sb.jobs))
				return
			}
			res.results = raw.Results
		}(subs[shard])
	}

	// Merge: reassemble per-item statuses into submission order.
	merged := make([]json.RawMessage, len(batch.Jobs))
	shedRetry := -1
	var firstErr error
	for range order {
		res := <-resCh
		switch {
		case res.err != nil:
			if firstErr == nil {
				firstErr = res.err
			}
		case res.status == http.StatusTooManyRequests:
			if res.retryAfter > shedRetry {
				shedRetry = res.retryAfter
			}
		case res.status != http.StatusOK:
			if firstErr == nil {
				firstErr = fmt.Errorf("shard: %s answered %d to a sub-batch", res.sb.shard, res.status)
			}
		default:
			for i, raw := range res.results {
				merged[res.sb.indexes[i]] = raw
			}
		}
	}
	switch {
	case shedRetry >= 0:
		// At least one shard shed: the sweep is incomplete, surface the
		// overload to the client with the most conservative hint.
		if shedRetry == 0 {
			shedRetry = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(shedRetry))
		writeError(w, http.StatusTooManyRequests, errors.New("shard: batch shed by an overloaded shard, retry later"))
	case firstErr != nil:
		writeError(w, http.StatusBadGateway, firstErr)
	default:
		writeJSON(w, http.StatusOK, rawBatchResponse{Results: merged})
	}
}

// forwardWriteBatch sends one sub-batch to its shard with the same
// failover walk as single submissions, keyed by the sub-batch's first
// job.
func (rt *Router) forwardWriteBatch(ctx context.Context, body []byte, sb *subBatch) (*http.Response, string, error) {
	return rt.forwardWrite(ctx, "/jobs/batch", "", body, string(sb.jobs[0].CacheKey()))
}

// ---- hedged reads ----------------------------------------------------

// handleRead proxies status, STL and manifest reads to the owning
// shard, hedging against the next ring replica once the latency budget
// expires: whichever attempt answers successfully first wins and the
// loser is cancelled. A non-2xx answer from the owner is authoritative
// (404 unknown job, 409 still running, 500 failed); a non-2xx from the
// hedge is only used when the owner cannot answer at all.
func (rt *Router) handleRead(w http.ResponseWriter, r *http.Request) {
	mRequests.Inc()
	key := r.PathValue("id")
	cands := rt.aliveOwners(key, 2)
	ctx, sp := trace.StartSpan(r.Context(), "router", "read",
		trace.A("key", key), trace.A("path", r.URL.Path))
	defer sp.End()

	resCh := make(chan readAttempt, 2)
	launched, received := 0, 0
	defer func() {
		// Reap the loser so its body (and pooled connection) is released;
		// its context is already cancelled by the deferred cancels below.
		if n := launched - received; n > 0 {
			go func() {
				for i := 0; i < n; i++ {
					if a := <-resCh; a.resp != nil {
						a.resp.Body.Close()
					}
				}
			}()
		}
	}()
	launch := func(shard string, hedge bool) context.CancelFunc {
		actx, cancel := context.WithCancel(ctx)
		launched++
		go func() {
			resp, err := rt.send(actx, http.MethodGet, shard, r.URL.Path, r.URL.RawQuery, nil)
			resCh <- readAttempt{resp: resp, shard: shard, hedge: hedge, err: err}
		}()
		return cancel
	}

	cancelPrimary := launch(cands[0], false)
	defer cancelPrimary()
	var cancelHedge context.CancelFunc
	defer func() {
		if cancelHedge != nil {
			cancelHedge()
		}
	}()
	fireHedge := func() {
		mHedgeFired.Inc()
		sp.SetArg("hedged", "1")
		serve.AnnotateHedge(ctx, true, false)
		cancelHedge = launch(cands[1], true)
	}

	var timer <-chan time.Time
	if len(cands) > 1 && rt.hedgeAfter > 0 {
		t := time.NewTimer(rt.hedgeAfter)
		defer t.Stop()
		timer = t.C
	}

	pending := 1
	primaryDead := false
	var fallback *readAttempt // non-2xx hedge answer held while the owner is still in flight
	for {
		select {
		case <-timer:
			timer = nil
			fireHedge()
			pending++
		case a := <-resCh:
			received++
			pending--
			if a.err != nil {
				rt.noteFailure(a.shard, a.err)
				if ctx.Err() != nil {
					return // client gone; nothing left to answer
				}
				if !a.hedge {
					primaryDead = true
					if fallback != nil {
						rt.serveRead(w, ctx, sp, *fallback)
						return
					}
				}
				if cancelHedge == nil && len(cands) > 1 {
					// The primary failed before the budget expired: fail over
					// to the replica immediately instead of waiting.
					timer = nil
					fireHedge()
					pending++
					continue
				}
				if pending == 0 {
					writeError(w, http.StatusBadGateway,
						fmt.Errorf("shard: every replica failed for key %s: %w", key, a.err))
					return
				}
				continue
			}
			if a.resp.StatusCode < 300 || !a.hedge || primaryDead {
				rt.serveRead(w, ctx, sp, a)
				return
			}
			// Non-2xx hedge while the owner is still alive: the replica
			// may simply never have seen this job. Hold it and wait.
			if fallback == nil {
				fallback = &a
			} else {
				a.resp.Body.Close()
			}
			if pending == 0 {
				rt.serveRead(w, ctx, sp, *fallback)
				return
			}
		case <-ctx.Done():
			return
		}
	}
}

// readAttempt is one in-flight (or completed) replica fetch of a
// hedged read.
type readAttempt struct {
	resp  *http.Response
	shard string
	hedge bool
	err   error
}

// serveRead relays the winning attempt and attributes it.
func (rt *Router) serveRead(w http.ResponseWriter, ctx context.Context, sp *trace.Span, a readAttempt) {
	if a.hedge {
		mHedgeWon.Inc()
		sp.SetArg("hedge_won", "1")
		serve.AnnotateHedge(ctx, true, true)
	}
	sp.SetArg("shard", a.shard)
	serve.AnnotateShard(ctx, a.shard)
	copyResponse(w, a.resp)
}

// ---- router health ---------------------------------------------------

// handleHealth reports the router's view of the ring: per-shard
// routability, the healthy count, and total/ejected membership counts
// for dashboards. The status-code semantics are unchanged from the
// pre-cluster-observability contract: with zero routable shards the
// router answers 503 so an outer balancer fails away from it, and 200
// otherwise.
func (rt *Router) handleHealth(w http.ResponseWriter, _ *http.Request) {
	rt.mu.Lock()
	shards := map[string]string{}
	healthy := 0
	total := len(rt.ring.Members())
	for _, m := range rt.ring.Members() {
		if rt.down[m] {
			shards[m] = "down"
		} else {
			shards[m] = "ok"
			healthy++
		}
	}
	rt.mu.Unlock()
	body := map[string]any{
		"status":         "ok",
		"role":           "router",
		"healthy":        healthy,
		"shards":         shards,
		"shards_total":   total,
		"shards_ejected": total - healthy,
	}
	code := http.StatusOK
	if healthy == 0 {
		body["status"] = "no routable shards"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, body)
}
