package obs

import "time"

// StageTimer instruments one named pipeline stage. It owns three metrics
// in its registry:
//
//	<name>.calls    counter  completed invocations (success or failure)
//	<name>.errors   counter  invocations that returned an error
//	<name>.seconds  histogram latency of each invocation
//
// Call sites cache the StageTimer in a package variable and wrap each
// invocation in Start/End, typically via a deferred EndErr on a named
// return value.
type StageTimer struct {
	calls *Counter
	errs  *Counter
	secs  *Histogram
}

// NewStage creates (or attaches to) the stage metrics for name in r.
func NewStage(r *Registry, name string) *StageTimer {
	return &StageTimer{
		calls: r.Counter(name + ".calls"),
		errs:  r.Counter(name + ".errors"),
		secs:  r.Histogram(name+".seconds", nil),
	}
}

// Stage is NewStage on the default registry.
func Stage(name string) *StageTimer { return NewStage(Default(), name) }

// Span is one in-flight timed invocation of a stage. The zero Span is a
// no-op, so instrumented code never has to nil-check.
type Span struct {
	t     *StageTimer
	start time.Time
}

// Start begins timing one invocation.
func (t *StageTimer) Start() Span { return Span{t: t, start: time.Now()} }

// End finishes the span as a success.
func (s Span) End() { s.finish(nil) }

// EndErr finishes the span, counting an error when err is non-nil. It is
// designed for use with deferred named returns:
//
//	func SliceIndexedCtx(...) (res *Result, err error) {
//		span := stSlice.Start()
//		defer func() { span.EndErr(err) }()
//		...
func (s Span) EndErr(err error) { s.finish(err) }

func (s Span) finish(err error) {
	if s.t == nil {
		return
	}
	s.t.secs.Observe(time.Since(s.start).Seconds())
	s.t.calls.Inc()
	if err != nil {
		s.t.errs.Inc()
	}
}
