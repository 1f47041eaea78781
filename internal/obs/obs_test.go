package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-3) // negative deltas ignored: counters only go up
	c.Add(0)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Add(-3)
	g.Add(1)
	if got := g.Value(); got != 8 {
		t.Errorf("gauge = %d, want 8", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Errorf("concurrent counter = %d, want 8000", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{0.01, 0.1, 1})
	// One observation per region: below first bound, exactly on a bound
	// (counts as <= bound), between bounds, and overflow.
	h.Observe(0.001)
	h.Observe(0.1)
	h.Observe(0.5)
	h.Observe(100)
	if got := h.Count(); got != 4 {
		t.Fatalf("count = %d, want 4", got)
	}
	want := []int64{1, 1, 1, 1}
	for i, w := range want {
		if got := h.buckets[i].Load(); got != w {
			t.Errorf("bucket[%d] = %d, want %d", i, got, w)
		}
	}
	if got := h.Sum(); got != 0.001+0.1+0.5+100 {
		t.Errorf("sum = %g", got)
	}
}

func TestHistogramDefaultBucketsAndSortedBounds(t *testing.T) {
	h := newHistogram(nil)
	if len(h.bounds) != len(DefBuckets) {
		t.Fatalf("default bounds len = %d, want %d", len(h.bounds), len(DefBuckets))
	}
	// Bounds are copied and sorted at construction, even if passed shuffled.
	h2 := newHistogram([]float64{1, 0.01, 0.1})
	for i := 1; i < len(h2.bounds); i++ {
		if h2.bounds[i-1] > h2.bounds[i] {
			t.Fatalf("bounds not sorted: %v", h2.bounds)
		}
	}
}

func TestHistogramConcurrentSum(t *testing.T) {
	h := newHistogram([]float64{1})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				h.Observe(0.5)
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != 4000 {
		t.Errorf("count = %d, want 4000", got)
	}
	if got, want := h.Sum(), 2000.0; got != want {
		t.Errorf("sum = %g, want %g (CAS float add lost updates)", got, want)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Error("counter get-or-create returned distinct instances")
	}
	if r.Gauge("x") != r.Gauge("x") {
		t.Error("gauge get-or-create returned distinct instances")
	}
	h1 := r.Histogram("x", []float64{1, 2})
	h2 := r.Histogram("x", []float64{5, 6, 7}) // first registration's bounds win
	if h1 != h2 {
		t.Error("histogram get-or-create returned distinct instances")
	}
	if len(h1.bounds) != 2 || h1.bounds[1] != 2 {
		t.Errorf("first-registered bounds lost: %v", h1.bounds)
	}
}

func TestResetKeepsPointersValid(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", []float64{1})
	c.Add(3)
	g.Set(7)
	h.Observe(0.5)
	r.Reset()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("reset did not zero all metrics")
	}
	// The cached pointers must still feed the same registered metric.
	c.Inc()
	if got := r.Counter("c").Value(); got != 1 {
		t.Errorf("cached pointer detached after Reset: registry sees %d", got)
	}
	h.Observe(2)
	if got := h.buckets[len(h.buckets)-1].Load(); got != 1 {
		t.Errorf("overflow bucket after reset = %d, want 1", got)
	}
}

func TestSnapshotSortedAndZeroOmitted(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Inc()
	r.Counter("a").Inc()
	r.Counter("zero") // registered but never incremented: omitted
	r.Gauge("g").Set(2)
	r.Gauge("gzero")
	r.Histogram("t", []float64{1}).Observe(0.5)
	r.Histogram("tzero", nil)
	s := r.Snapshot()
	if len(s.Counters) != 2 || s.Counters[0].Name != "a" || s.Counters[1].Name != "b" {
		t.Errorf("counters = %+v, want name-sorted [a b]", s.Counters)
	}
	if len(s.Gauges) != 1 || s.Gauges[0].Name != "g" {
		t.Errorf("gauges = %+v", s.Gauges)
	}
	if len(s.Stages) != 1 || s.Stages[0].Name != "t" {
		t.Errorf("stages = %+v", s.Stages)
	}
	if _, ok := s.Counter("zero"); ok {
		t.Error("zero-valued counter present in snapshot")
	}
	if v, ok := s.Counter("a"); !ok || v != 1 {
		t.Errorf("Counter(a) = %d,%v", v, ok)
	}
	if v, ok := s.Gauge("g"); !ok || v != 2 {
		t.Errorf("Gauge(g) = %d,%v", v, ok)
	}
	if hs, ok := s.Stage("t"); !ok || hs.Count != 1 {
		t.Errorf("Stage(t) = %+v,%v", hs, ok)
	}
	if _, ok := s.Stage("missing"); ok {
		t.Error("Stage(missing) reported present")
	}
}

func TestSnapshotJSONByteIdentical(t *testing.T) {
	build := func() Snapshot {
		r := NewRegistry()
		r.Counter("n").Add(41)
		r.Counter("m").Add(7)
		r.Gauge("g").Set(3)
		h := r.Histogram("stage.seconds", []float64{0.1, 1})
		h.Observe(0.05)
		h.Observe(0.5)
		return r.Snapshot()
	}
	a, err := build().JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := build().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("identical registries gave different JSON:\n%s\n---\n%s", a, b)
	}
}

func TestDeterministicJSONExcludesGauges(t *testing.T) {
	r := NewRegistry()
	r.Counter("work.items").Add(10)
	r.Gauge("pool.busy.nanos").Set(123456789) // wall-clock-derived: excluded
	h := r.Histogram("stage.seconds", nil)
	h.Observe(0.2)
	out, err := r.Snapshot().DeterministicJSON()
	if err != nil {
		t.Fatal(err)
	}
	s := string(out)
	if strings.Contains(s, "pool.busy.nanos") {
		t.Errorf("deterministic view leaked a gauge:\n%s", s)
	}
	if strings.Contains(s, "sum_seconds") || strings.Contains(s, "bounds_seconds") {
		t.Errorf("deterministic view leaked timing values:\n%s", s)
	}
	if !strings.Contains(s, "work.items") || !strings.Contains(s, "stage.seconds") {
		t.Errorf("deterministic view missing counters or timing counts:\n%s", s)
	}
}

func TestQuantileAndMean(t *testing.T) {
	hs := HistogramSnapshot{
		Name:       "q",
		Count:      10,
		SumSeconds: 5,
		Bounds:     []float64{0.1, 1, 10},
		Counts:     []int64{5, 4, 1, 0},
	}
	if got := hs.Mean(); got != 0.5 {
		t.Errorf("mean = %g, want 0.5", got)
	}
	if got := hs.Quantile(0.5); got != 0.1 {
		t.Errorf("p50 = %g, want 0.1 (rank 5 is in the first bucket)", got)
	}
	if got := hs.Quantile(0.95); got != 10 {
		t.Errorf("p95 = %g, want 10", got)
	}
	// Clamping and the overflow bucket.
	if got := hs.Quantile(-1); got != 0.1 {
		t.Errorf("q<0 = %g, want 0.1", got)
	}
	over := HistogramSnapshot{Count: 1, Bounds: []float64{1}, Counts: []int64{0, 1}}
	if got := over.Quantile(1); got != 1 {
		t.Errorf("overflow quantile = %g, want largest finite bound 1", got)
	}
	var empty HistogramSnapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %g", got)
	}
	if got := empty.Mean(); got != 0 {
		t.Errorf("empty mean = %g", got)
	}
}

func TestWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter("stage.a.calls").Inc()
	r.Histogram("stage.a.seconds", nil).Observe(0.002)
	r.Counter("items").Add(12)
	// Busy/wall gauges drive the derived utilization line.
	r.Gauge("parallel.pool.busy.nanos").Set(500)
	r.Gauge("parallel.pool.wall.nanos").Set(1000)
	var buf bytes.Buffer
	r.Snapshot().WriteText(&buf)
	out := buf.String()
	for _, want := range []string{
		"pipeline stage timings", "stage.a", "pipeline counters",
		"items", "(gauge)", "worker pool utilization: 50%",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteText output missing %q:\n%s", want, out)
		}
	}
}
