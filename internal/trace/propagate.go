package trace

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"strconv"
	"strings"
)

// Cross-process trace propagation. A request that crosses the
// router→shard boundary carries two headers:
//
//	X-Obfuscade-Trace: <trace-id>-<parent-span-id>
//	X-Request-ID:      <opaque request identifier>
//
// The trace ID is a 16-hex-char random identifier minted once per
// end-to-end request (by the router, or adopted from the client when it
// already sends one); the parent span ID is the sender's current span
// in its own recorder. The receiver adopts both with WithRemoteParent,
// so every span it records carries the shared trace ID and its root
// spans parent under the sender's span — after merging the per-process
// NDJSON journals (WriteMergedChromeTrace) the whole request renders as
// one tree across process lanes.
//
// The request ID is operational identity, not trace structure: it is
// echoed on every response (including sheds and proxy errors) and
// written to both sides' access logs, so one client-visible ID
// correlates the router's and the owning shard's log lines.

const (
	// HeaderTrace carries the trace context across process boundaries.
	HeaderTrace = "X-Obfuscade-Trace"
	// HeaderRequestID carries (and echoes) the per-request identity.
	HeaderRequestID = "X-Request-ID"
)

// TraceContext is the parsed form of a HeaderTrace value.
type TraceContext struct {
	// TraceID is the end-to-end request's trace identifier.
	TraceID string
	// Parent is the sender's span ID the receiver should parent under.
	Parent uint64
}

// NewTraceID mints a 16-hex-char random trace identifier.
func NewTraceID() string {
	var b [8]byte
	rand.Read(b[:])
	return hex.EncodeToString(b[:])
}

// NewRequestID mints a request identifier for clients that sent none.
func NewRequestID() string {
	var b [8]byte
	rand.Read(b[:])
	return "req-" + hex.EncodeToString(b[:])
}

// FormatTraceHeader renders tc as a HeaderTrace value.
func FormatTraceHeader(tc TraceContext) string {
	return tc.TraceID + "-" + strconv.FormatUint(tc.Parent, 10)
}

// ParseTraceHeader parses a HeaderTrace value. The boolean is false for
// an empty or malformed header — the receiver then starts a fresh trace
// instead of failing the request.
func ParseTraceHeader(v string) (TraceContext, bool) {
	i := strings.LastIndexByte(v, '-')
	if i <= 0 || i == len(v)-1 {
		return TraceContext{}, false
	}
	id := v[:i]
	if !isHexID(id) {
		return TraceContext{}, false
	}
	parent, err := strconv.ParseUint(v[i+1:], 10, 64)
	if err != nil {
		return TraceContext{}, false
	}
	return TraceContext{TraceID: id, Parent: parent}, true
}

func isHexID(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') && (c < 'A' || c > 'F') {
			return false
		}
	}
	return true
}

type traceIDCtxKey struct{}
type requestIDCtxKey struct{}

// WithTraceID tags ctx with a trace identifier; spans recorded under it
// carry the ID in their events.
func WithTraceID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, traceIDCtxKey{}, id)
}

// TraceIDFrom returns the trace identifier carried by ctx, or "".
func TraceIDFrom(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	if id, ok := ctx.Value(traceIDCtxKey{}).(string); ok {
		return id
	}
	return ""
}

// WithRequestID tags ctx with the per-request identity.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDCtxKey{}, id)
}

// RequestIDFrom returns the request identity carried by ctx, or "".
func RequestIDFrom(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	if id, ok := ctx.Value(requestIDCtxKey{}).(string); ok {
		return id
	}
	return ""
}

// WithRemoteParent adopts an incoming trace context: spans opened under
// the returned context carry tc.TraceID and parent under tc.Parent —
// the sender's span in its own process. Span IDs are only unique within
// a process; the merge exporter keeps processes on separate lanes, so
// the (trace ID, parent) pair is unambiguous after stitching.
func WithRemoteParent(ctx context.Context, tc TraceContext) context.Context {
	ctx = WithTraceID(ctx, tc.TraceID)
	return context.WithValue(ctx, spanCtxKey{}, tc.Parent)
}

// ContextSpanID returns the span ID carried by ctx (the span a nested
// span would parent under), or 0 at the root. Senders use it to build
// the outgoing HeaderTrace value.
func ContextSpanID(ctx context.Context) uint64 { return parentSpan(ctx) }

// OutgoingTraceHeader renders the HeaderTrace value for a proxied
// request under ctx, or "" when ctx carries no trace identifier.
func OutgoingTraceHeader(ctx context.Context) string {
	id := TraceIDFrom(ctx)
	if id == "" {
		return ""
	}
	return FormatTraceHeader(TraceContext{TraceID: id, Parent: parentSpan(ctx)})
}

// EnsureTraceID returns ctx carrying a trace identifier, minting one
// when absent, plus the effective ID.
func EnsureTraceID(ctx context.Context) (context.Context, string) {
	if id := TraceIDFrom(ctx); id != "" {
		return ctx, id
	}
	id := NewTraceID()
	return WithTraceID(ctx, id), id
}
