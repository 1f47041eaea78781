package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"obfuscade/internal/obs"
	"obfuscade/internal/trace"
)

var mAccessLogErrors = obs.Default().Counter("serve.accesslog.errors")

// AccessEntry is one NDJSON access-log line: the operational record of
// one HTTP request as either the router or a shard saw it. The request
// and trace IDs are the correlation keys — the same pair appears in the
// router's entry and the owning shard's entry for one routed request.
type AccessEntry struct {
	// TS is the request completion time (RFC3339, nanoseconds).
	TS string `json:"ts"`
	// Role is the process's role: "serve" (standalone shard) or "router".
	Role string `json:"role"`
	// Method and Path identify the route.
	Method string `json:"method"`
	Path   string `json:"path"`
	// Status is the response status code; Bytes the body bytes written.
	Status int   `json:"status"`
	Bytes  int64 `json:"bytes"`
	// DurMS is the handler wall time in milliseconds.
	DurMS float64 `json:"dur_ms"`
	// RequestID is the echoed (or generated) X-Request-ID.
	RequestID string `json:"request_id"`
	// Trace is the request's trace identifier.
	Trace string `json:"trace,omitempty"`
	// Shard is the owning shard a router proxied to (router role only).
	Shard string `json:"shard,omitempty"`
	// Outcome is the result-cache outcome when the handler resolved one:
	// "hit", "disk_hit" or "miss".
	Outcome string `json:"outcome,omitempty"`
	// HedgeFired/HedgeWon record hedged-read attribution (router role).
	HedgeFired bool `json:"hedge_fired,omitempty"`
	HedgeWon   bool `json:"hedge_won,omitempty"`
}

// AccessLogger serializes AccessEntry lines to one writer. Safe for
// concurrent use; every entry is flushed through to the underlying
// writer immediately, so an operator tailing the file (or the cluster
// smoke test) sees a request as soon as it completes — Close only adds
// the final flush on graceful drain.
type AccessLogger struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	now func() time.Time
}

// NewAccessLogger wraps w. The caller keeps ownership of any underlying
// file; Close flushes but does not close it.
func NewAccessLogger(w io.Writer) *AccessLogger {
	return &AccessLogger{bw: bufio.NewWriter(w), now: time.Now}
}

// Log writes one entry as an NDJSON line. Encoding failures only bump
// serve.accesslog.errors: the access log must never fail a request.
func (l *AccessLogger) Log(e AccessEntry) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	data, err := json.Marshal(e)
	if err != nil {
		mAccessLogErrors.Inc()
		return
	}
	l.bw.Write(data)
	l.bw.WriteByte('\n')
	if err := l.bw.Flush(); err != nil {
		mAccessLogErrors.Inc()
	}
}

// Close flushes buffered entries. Call it on graceful drain.
func (l *AccessLogger) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bw.Flush()
}

// accessAnnotations collects handler-supplied attribution (owning
// shard, cache outcome, hedge flags) for the middleware to fold into
// the request's log entry. It travels in the request context.
type accessAnnotations struct {
	mu         sync.Mutex
	shard      string
	outcome    string
	hedgeFired bool
	hedgeWon   bool
	items      []string // per-item outcomes of a batch request, in order
}

type annCtxKey struct{}

func annotationsFrom(ctx context.Context) *accessAnnotations {
	a, _ := ctx.Value(annCtxKey{}).(*accessAnnotations)
	return a
}

// AnnotateShard records the owning shard a request was proxied to.
func AnnotateShard(ctx context.Context, shard string) {
	if a := annotationsFrom(ctx); a != nil {
		a.mu.Lock()
		a.shard = shard
		a.mu.Unlock()
	}
}

// AnnotateOutcome records the result-cache outcome that served the
// request ("hit", "disk_hit", "miss").
func AnnotateOutcome(ctx context.Context, outcome string) {
	if a := annotationsFrom(ctx); a != nil {
		a.mu.Lock()
		a.outcome = outcome
		a.mu.Unlock()
	}
}

// AnnotateBatchItem appends one batch item's cache outcome. The
// middleware emits an extra access-log line per item with the request
// ID suffixed "#<seq>", so a batch of N jobs is N+1 lines: the batch
// entry plus one attributable line per item. (Before this existed,
// batch items raced to overwrite the single outcome field and the log
// recorded only whichever item annotated last.)
func AnnotateBatchItem(ctx context.Context, outcome string) {
	if a := annotationsFrom(ctx); a != nil {
		a.mu.Lock()
		a.items = append(a.items, outcome)
		a.mu.Unlock()
	}
}

// AnnotateHedge records hedged-read attribution: fired when the
// duplicate read launched, won when it answered first.
func AnnotateHedge(ctx context.Context, fired, won bool) {
	if a := annotationsFrom(ctx); a != nil {
		a.mu.Lock()
		a.hedgeFired = a.hedgeFired || fired
		a.hedgeWon = a.hedgeWon || won
		a.mu.Unlock()
	}
}

// statusWriter captures the status code and body byte count a handler
// produced.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// WithObservability wraps h with the cluster-observability middleware
// shared by router and shard mode:
//
//   - X-Request-ID is adopted from the client or generated, echoed on
//     every response — including 429 sheds, proxy errors and hedged
//     reads — and carried in the request context.
//   - X-Obfuscade-Trace, when present, is adopted so spans opened under
//     the request parent under the sender's span with its trace ID;
//     otherwise a fresh trace ID is minted for the request.
//   - When log is non-nil, one AccessEntry per request is written with
//     status, latency, byte count and any handler annotations.
//
// role names the process's side of the boundary in log entries.
func WithObservability(h http.Handler, role string, log *AccessLogger) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx := r.Context()

		reqID := r.Header.Get(trace.HeaderRequestID)
		if reqID == "" {
			reqID = trace.NewRequestID()
		}
		w.Header().Set(trace.HeaderRequestID, reqID)
		ctx = trace.WithRequestID(ctx, reqID)

		var traceID string
		if tc, ok := trace.ParseTraceHeader(r.Header.Get(trace.HeaderTrace)); ok {
			ctx = trace.WithRemoteParent(ctx, tc)
			traceID = tc.TraceID
		} else {
			ctx, traceID = trace.EnsureTraceID(ctx)
		}

		ann := &accessAnnotations{}
		ctx = context.WithValue(ctx, annCtxKey{}, ann)

		sw := &statusWriter{ResponseWriter: w}
		now := time.Now
		if log != nil {
			now = log.now
		}
		start := now()
		h.ServeHTTP(sw, r.WithContext(ctx))

		if log == nil {
			return
		}
		end := now()
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		ann.mu.Lock()
		entry := AccessEntry{
			TS:         end.UTC().Format(time.RFC3339Nano),
			Role:       role,
			Method:     r.Method,
			Path:       r.URL.Path,
			Status:     sw.status,
			Bytes:      sw.bytes,
			DurMS:      float64(end.Sub(start).Nanoseconds()) / 1e6,
			RequestID:  reqID,
			Trace:      traceID,
			Shard:      ann.shard,
			Outcome:    ann.outcome,
			HedgeFired: ann.hedgeFired,
			HedgeWon:   ann.hedgeWon,
		}
		items := append([]string(nil), ann.items...)
		ann.mu.Unlock()
		log.Log(entry)
		// One line per batch item, after the batch entry, sharing its
		// timing but carrying a sequenced request ID and the item's own
		// outcome. Bytes stay on the batch entry.
		for i, out := range items {
			item := entry
			item.RequestID = reqID + "#" + strconv.Itoa(i)
			item.Outcome = out
			item.Bytes = 0
			log.Log(item)
		}
	})
}
