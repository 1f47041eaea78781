// Package trace is the run-level structured event subsystem of the
// manufacture pipeline: where package obs answers "how much work, how
// fast" in aggregate, trace answers "which key, on which worker, in what
// order" for one run — the audit trail a production AM service retains
// and the synthetic stand-in for the printer's physical deposition
// timeline that the paper's side-channel references treat as an
// information channel.
//
// Events are recorded into a fixed-capacity ring buffer guarded by one
// short mutex hold per event (a struct copy); span IDs come from an
// atomic allocator so span creation never takes the lock. When the ring
// wraps, the oldest events are overwritten and counted as dropped — a
// bounded-memory contract that lets the recorder stay always-on.
//
// Determinism contract (asserted by the tests in internal/core):
//
//   - The *multiset* of (kind, cat, name, args) tuples depends only on
//     the work performed: same seed and inputs give the same event
//     counts at any worker-pool size (Recorder.DeterministicJSON).
//   - Sequence numbers, span IDs, timestamps, durations and worker
//     attribution are scheduling-dependent and excluded from the
//     deterministic view.
//
// The span hierarchy mirrors the paper's process chain: a run span
// (quality matrix) parents one span per processing key, which parents
// the stage spans (CAD, STL, slicing, printing, simulation), which emit
// batch instants for the per-layer and per-replicate fan-outs.
package trace

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies an event.
type Kind string

const (
	// KindSpan is a completed timed span.
	KindSpan Kind = "span"
	// KindInstant is a point event (typically a batch marker carrying a
	// deterministic count in its args).
	KindInstant Kind = "instant"
)

// Arg is one key/value attribute of an event. Args are kept in the
// order the call site supplies them, so the serialized form is stable.
type Arg struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// A constructs an Arg.
func A(key, value string) Arg { return Arg{Key: key, Value: value} }

// Event is one recorded trace event. Start is the offset from the
// recorder's epoch (its creation or last Reset).
type Event struct {
	// Seq is the monotonic sequence number in recording order.
	Seq uint64 `json:"seq"`
	// ID is the span ID (0 for instants).
	ID uint64 `json:"id,omitempty"`
	// Parent is the enclosing span's ID (0 at the root).
	Parent uint64 `json:"parent,omitempty"`
	// Kind is span or instant.
	Kind Kind `json:"kind"`
	// Cat is the hierarchy level: "run", "key", "stage" or "batch".
	Cat string `json:"cat"`
	// Name identifies the event within its category.
	Name string `json:"name"`
	// Worker is the worker-pool lane that produced the event (-1 when
	// recorded outside a pool task).
	Worker int `json:"worker"`
	// Trace is the end-to-end trace identifier carried by the recording
	// context (empty outside a propagated request). Like worker
	// attribution it is excluded from the deterministic multiset view.
	Trace string `json:"trace,omitempty"`
	// Start is the offset from the recorder epoch.
	Start time.Duration `json:"start_ns"`
	// Dur is the span duration (0 for instants).
	Dur time.Duration `json:"dur_ns,omitempty"`
	// Args carries event attributes in call-site order.
	Args []Arg `json:"args,omitempty"`
}

// DefaultCapacity is the ring size of recorders created with New(0):
// comfortably larger than a full `obfuscade paper -exp all` pass, small
// enough (a few MB) to stay resident forever.
const DefaultCapacity = 1 << 14

// Recorder is a fixed-capacity ring buffer of events. All methods are
// safe for concurrent use.
type Recorder struct {
	ids atomic.Uint64 // span ID allocator, lock-free

	mu      sync.Mutex
	epoch   time.Time
	process string  // exported journal lane name (SetProcess)
	buf     []Event // grows to cap, then wraps at total%cap
	cap     int
	total   uint64 // events ever recorded; next event's Seq
}

// New returns a recorder with the given ring capacity (<= 0 means
// DefaultCapacity).
func New(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{cap: capacity, epoch: time.Now()}
}

// Epoch returns the recorder's time origin: event Start offsets are
// relative to it. The merge exporter uses per-process epochs to align
// journals from different processes onto one timeline.
func (r *Recorder) Epoch() time.Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// SetProcess names the process for exported journals ("router",
// "shard-0", ...). The name rides the NDJSON meta line so a merged
// trace labels each lane even when the merger supplies no override.
func (r *Recorder) SetProcess(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.process = name
}

// ProcessName returns the name set by SetProcess, or "".
func (r *Recorder) ProcessName() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.process
}

var std = New(0)

// Default returns the process-wide recorder used by the pipeline's
// instrumentation.
func Default() *Recorder { return std }

func (r *Recorder) record(e Event) {
	now := time.Now()
	r.mu.Lock()
	e.Seq = r.total
	e.Start = now.Sub(r.epoch) - e.Dur
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, e)
	} else {
		r.buf[int(r.total)%r.cap] = e
	}
	r.total++
	r.mu.Unlock()
}

// Events returns a copy of the retained events in sequence order.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	if len(r.buf) < r.cap {
		return append(out, r.buf...)
	}
	start := int(r.total) % r.cap
	out = append(out, r.buf[start:]...)
	return append(out, r.buf[:start]...)
}

// Len returns the number of retained events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Dropped returns how many events the ring has overwritten.
func (r *Recorder) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total - uint64(len(r.buf))
}

// Reset discards all events and restarts the epoch. Span IDs keep
// counting up, so spans straddling a Reset never collide with new ones.
func (r *Recorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf = nil
	r.total = 0
	r.epoch = time.Now()
}

// Context plumbing: the current span ID and the worker lane travel in
// the context so deeply nested stages attribute events correctly
// without new function parameters at every level.

type spanCtxKey struct{}
type workerCtxKey struct{}

// WithWorker tags ctx with a worker-pool lane ID. The parallel package
// stamps every task context; call sites rarely need this directly.
func WithWorker(ctx context.Context, id int) context.Context {
	return context.WithValue(ctx, workerCtxKey{}, id)
}

// Worker returns the worker lane carried by ctx, or -1 when the work is
// not running on a pool.
func Worker(ctx context.Context) int {
	if ctx == nil {
		return -1
	}
	if id, ok := ctx.Value(workerCtxKey{}).(int); ok {
		return id
	}
	return -1
}

func parentSpan(ctx context.Context) uint64 {
	if ctx == nil {
		return 0
	}
	if id, ok := ctx.Value(spanCtxKey{}).(uint64); ok {
		return id
	}
	return 0
}

// Span is one in-flight timed region. The zero or nil Span is a no-op,
// so instrumented code never nil-checks.
type Span struct {
	r       *Recorder
	id      uint64
	parent  uint64
	cat     string
	name    string
	worker  int
	trace   string
	start   time.Time
	args    []Arg
	ended   bool
	endOnce sync.Once
}

// StartSpan opens a span under the span carried by ctx and returns a
// derived context that parents nested spans and instants to it.
func (r *Recorder) StartSpan(ctx context.Context, cat, name string, args ...Arg) (context.Context, *Span) {
	if ctx == nil {
		ctx = context.Background()
	}
	s := &Span{
		r:      r,
		id:     r.ids.Add(1),
		parent: parentSpan(ctx),
		cat:    cat,
		name:   name,
		worker: Worker(ctx),
		trace:  TraceIDFrom(ctx),
		start:  time.Now(),
		args:   append([]Arg(nil), args...),
	}
	return context.WithValue(ctx, spanCtxKey{}, s.id), s
}

// SetArg appends an attribute to the span before it ends. Call it only
// from the goroutine that owns the span.
func (s *Span) SetArg(key, value string) {
	if s == nil || s.ended {
		return
	}
	s.args = append(s.args, Arg{Key: key, Value: value})
}

// End records the span. Safe to call more than once; only the first
// call records.
func (s *Span) End() {
	if s == nil || s.r == nil {
		return
	}
	s.endOnce.Do(func() {
		s.ended = true
		s.r.record(Event{
			ID:     s.id,
			Parent: s.parent,
			Kind:   KindSpan,
			Cat:    s.cat,
			Name:   s.name,
			Worker: s.worker,
			Trace:  s.trace,
			Dur:    time.Since(s.start),
			Args:   s.args,
		})
	})
}

// Instant records a point event under the span carried by ctx.
func (r *Recorder) Instant(ctx context.Context, cat, name string, args ...Arg) {
	r.record(Event{
		Parent: parentSpan(ctx),
		Kind:   KindInstant,
		Cat:    cat,
		Name:   name,
		Worker: Worker(ctx),
		Trace:  TraceIDFrom(ctx),
		Args:   append([]Arg(nil), args...),
	})
}

// StartSpan opens a span on the default recorder.
func StartSpan(ctx context.Context, cat, name string, args ...Arg) (context.Context, *Span) {
	return std.StartSpan(ctx, cat, name, args...)
}

// Instant records a point event on the default recorder.
func Instant(ctx context.Context, cat, name string, args ...Arg) {
	std.Instant(ctx, cat, name, args...)
}
