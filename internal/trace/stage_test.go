package trace

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"obfuscade/internal/obs"
)

// stageDelta returns how far the stage's calls and errors counters and
// its seconds histogram moved between two snapshots of the default
// registry.
func stageDelta(before, after obs.Snapshot, name string) (calls, errs, count int64, seconds float64) {
	c0, _ := before.Counter(name + ".calls")
	c1, _ := after.Counter(name + ".calls")
	e0, _ := before.Counter(name + ".errors")
	e1, _ := after.Counter(name + ".errors")
	h0, _ := before.Stage(name + ".seconds")
	h1, _ := after.Stage(name + ".seconds")
	return c1 - c0, e1 - e0, h1.Count - h0.Count, h1.SumSeconds - h0.SumSeconds
}

func TestStageMetricsMatchSpans(t *testing.T) {
	st := NewStage("stage", "trace.test.demo")
	before := obs.Default().Snapshot()
	Default().Reset()
	ctx := context.Background()
	_, a := st.Start(ctx)
	a.End()
	_, b := st.Start(ctx)
	b.EndErr(nil)
	_, c := st.Start(ctx, A("k", "v"))
	c.EndErr(errors.New("boom"))
	c.End() // already ended: neither records nor observes again
	calls, errs, count, seconds := stageDelta(before, obs.Default().Snapshot(), "trace.test.demo")
	if calls != 3 || errs != 1 || count != 3 {
		t.Errorf("calls, errors, observations = %d, %d, %d; want 3, 1, 3", calls, errs, count)
	}
	var spans time.Duration
	n := 0
	for _, e := range Default().Events() {
		if e.Kind == KindSpan && e.Cat == "stage" && e.Name == "trace.test.demo" {
			spans += e.Dur
			n++
		}
	}
	if n != 3 {
		t.Fatalf("%d stage spans recorded, want 3", n)
	}
	// One clock reading per End: the histogram sum is the span durations'.
	if got := int64(math.Round(seconds * 1e9)); got != spans.Nanoseconds() {
		t.Errorf("seconds sum %d ns, span durations %d ns", got, spans.Nanoseconds())
	}
}

func TestZeroSpanIsNoOp(t *testing.T) {
	var s Span
	s.End() // must not panic
	s.EndErr(errors.New("ignored"))
	var nilSpan *Span
	nilSpan.EndErr(errors.New("ignored"))
}

func TestDefaultRegistryAndStage(t *testing.T) {
	st := NewStage("run", "trace.test.stage")
	Default().Reset()
	ctx, sp := st.Start(context.Background())
	if parentSpan(ctx) != sp.id {
		t.Fatalf("Start's context carries span %d, want %d", parentSpan(ctx), sp.id)
	}
	time.Sleep(time.Millisecond)
	sp.End()
	if v, _ := obs.Default().Snapshot().Counter("trace.test.stage.calls"); v < 1 {
		t.Errorf("default-registry stage calls = %d", v)
	}
	ev := Default().Events()
	if len(ev) != 1 || ev[0].Cat != "run" || ev[0].Name != "trace.test.stage" || ev[0].Dur < time.Millisecond {
		t.Fatalf("default recorder holds %+v, want one run span of at least 1ms", ev)
	}
}

func BenchmarkSpanStartEnd(b *testing.B) {
	st := NewStage("stage", "bench.stage")
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		_, sp := st.Start(ctx)
		sp.End()
	}
}
