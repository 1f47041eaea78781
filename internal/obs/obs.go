// Package obs is the zero-dependency observability layer of the
// manufacture pipeline: atomic counters, gauges and fixed-bucket latency
// histograms registered in a process-wide registry. Pipeline stages
// (CAD, STL, slicing, printing, testing — the per-stage decomposition of
// paper Fig. 1 / Table 1) are timed by trace.Stage, which observes each
// span's duration on a <name>.seconds histogram here.
//
// Determinism contract (relied on by tests and the CI bench gate):
//
//   - Counters and histogram observation counts depend only on the work
//     performed — same seed and inputs give the same values regardless of
//     worker count or scheduling (Snapshot.DeterministicJSON).
//   - Gauges and histogram bucket contents may hold wall-clock-derived
//     values and are excluded from the deterministic view.
//   - Histograms use fixed bucket bounds chosen at registration, never
//     rebucketed at runtime, so a snapshot's shape (bucket count and
//     bounds) is scheduling-independent and the exported JSON layout is
//     stable across runs.
//
// Metrics are cheap (one or two atomic ops) and always on; hot call sites
// cache the metric pointers in package variables. Registry.Reset zeroes
// values in place, keeping every cached pointer valid.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored; counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic value that can move in both directions. Gauges may
// hold timing-derived quantities (e.g. accumulated busy nanoseconds), so
// they are excluded from the deterministic snapshot view.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefBuckets are the default latency bucket upper bounds in seconds:
// roughly exponential from 100 µs to 60 s, matched to the pipeline's
// stage costs (a layer slice is sub-millisecond, a full quality matrix a
// few seconds). The final implicit bucket catches everything larger.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Histogram is a fixed-bucket histogram of float64 observations
// (typically seconds). Bucket i counts observations v <= bounds[i]; the
// final bucket counts the overflow. Bounds are fixed at registration.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func (h *Histogram) reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sumBits.Store(0)
}

// Registry holds named metrics. All methods are safe for concurrent use;
// metric constructors are get-or-create, so two call sites naming the
// same metric share one instance.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

var std = NewRegistry()

// Default returns the process-wide registry used by the pipeline's
// instrumentation.
func Default() *Registry { return std }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds (nil means DefBuckets) on first use. The first
// registration's bounds win; later callers share the existing histogram.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Reset zeroes every registered metric in place. Cached metric pointers
// remain valid; only the values are cleared. Tests reset before a
// measured run so snapshots cover exactly that run.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.v.Store(0)
	}
	for _, h := range r.hists {
		h.reset()
	}
}
