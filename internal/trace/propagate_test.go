package trace

import (
	"context"
	"testing"
)

func TestTraceHeaderRoundTrip(t *testing.T) {
	tc := TraceContext{TraceID: "4bf92f3577b34da6", Parent: 42}
	h := FormatTraceHeader(tc)
	if h != "4bf92f3577b34da6-42" {
		t.Fatalf("header = %q", h)
	}
	got, ok := ParseTraceHeader(h)
	if !ok || got != tc {
		t.Fatalf("round trip: %+v ok=%v, want %+v", got, ok, tc)
	}
}

func TestParseTraceHeaderRejectsMalformed(t *testing.T) {
	for _, v := range []string{
		"",                    // empty
		"abc",                 // no separator
		"-42",                 // empty trace id
		"abc-",                // empty parent
		"nothex!-42",          // bad charset
		"4bf92f3577b34da6-xy", // non-numeric parent
		"4bf92f3577b34da6-—7", // unicode dash garbage
	} {
		if tc, ok := ParseTraceHeader(v); ok {
			t.Errorf("ParseTraceHeader(%q) accepted as %+v", v, tc)
		}
	}
}

// FuzzParseTraceHeader feeds arbitrary header values to the parser.
// Invariant: it never panics, and every accepted value's TraceContext
// survives FormatTraceHeader → ParseTraceHeader unchanged.
func FuzzParseTraceHeader(f *testing.F) {
	for _, v := range []string{"4bf92f3577b34da6-42", "a-0", "ABC-007", "abc", "-42", "abc-", "nothex!-42", "4bf92f3577b34da6-—7"} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v string) {
		tc, ok := ParseTraceHeader(v)
		if !ok {
			return
		}
		h := FormatTraceHeader(tc)
		if back, ok := ParseTraceHeader(h); !ok || back != tc {
			t.Fatalf("%q parsed as %+v, formatted as %q, re-parsed as %+v ok=%v", v, tc, h, back, ok)
		}
	})
}

func TestNewTraceIDShape(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if len(a) != 16 || !isHexID(a) {
		t.Fatalf("trace id %q is not 16 hex chars", a)
	}
	if a == b {
		t.Fatalf("two trace ids collided: %q", a)
	}
	if id := NewRequestID(); len(id) != len("req-")+16 {
		t.Fatalf("request id %q has unexpected shape", id)
	}
}

func TestContextPlumbing(t *testing.T) {
	ctx := context.Background()
	if TraceIDFrom(ctx) != "" || RequestIDFrom(ctx) != "" {
		t.Fatal("empty context carries identifiers")
	}
	ctx = WithTraceID(ctx, "deadbeefdeadbeef")
	ctx = WithRequestID(ctx, "req-1")
	if TraceIDFrom(ctx) != "deadbeefdeadbeef" || RequestIDFrom(ctx) != "req-1" {
		t.Fatalf("context lost identifiers: trace=%q req=%q", TraceIDFrom(ctx), RequestIDFrom(ctx))
	}
	ctx2, id := EnsureTraceID(ctx)
	if id != "deadbeefdeadbeef" || ctx2 != ctx {
		t.Fatal("EnsureTraceID replaced an existing trace id")
	}
	if _, id := EnsureTraceID(context.Background()); len(id) != 16 {
		t.Fatalf("EnsureTraceID minted %q", id)
	}
}

// TestWithRemoteParentAdoptsContext pins the propagation contract: a
// span opened under an adopted remote context parents under the remote
// span ID and carries the remote trace ID in its event.
func TestWithRemoteParentAdoptsContext(t *testing.T) {
	r := New(16)
	tc := TraceContext{TraceID: "4bf92f3577b34da6", Parent: 777}
	ctx := WithRemoteParent(context.Background(), tc)
	if got := OutgoingTraceHeader(ctx); got != "4bf92f3577b34da6-777" {
		t.Fatalf("OutgoingTraceHeader = %q", got)
	}
	sctx, sp := r.StartSpan(ctx, "serve", "job")
	r.Instant(sctx, "batch", "mark")
	sp.End()

	events := r.Events()
	if len(events) != 2 {
		t.Fatalf("recorded %d events, want 2", len(events))
	}
	for _, e := range events {
		if e.Trace != tc.TraceID {
			t.Fatalf("event %s carries trace %q, want %q", e.Name, e.Trace, tc.TraceID)
		}
	}
	// The instant is inside the local span; the local span parents under
	// the remote one.
	var span, instant Event
	for _, e := range events {
		if e.Kind == KindSpan {
			span = e
		} else {
			instant = e
		}
	}
	if span.Parent != tc.Parent {
		t.Fatalf("span parent = %d, want remote %d", span.Parent, tc.Parent)
	}
	if instant.Parent != span.ID {
		t.Fatalf("instant parent = %d, want local span %d", instant.Parent, span.ID)
	}
	// The nested context's outgoing header now names the local span.
	if got := OutgoingTraceHeader(sctx); got != FormatTraceHeader(TraceContext{TraceID: tc.TraceID, Parent: span.ID}) {
		t.Fatalf("nested OutgoingTraceHeader = %q", got)
	}
}

func TestOutgoingTraceHeaderEmptyWithoutTraceID(t *testing.T) {
	r := New(4)
	ctx, sp := r.StartSpan(context.Background(), "router", "probe")
	defer sp.End()
	if got := OutgoingTraceHeader(ctx); got != "" {
		t.Fatalf("header without a trace id = %q, want empty", got)
	}
}
