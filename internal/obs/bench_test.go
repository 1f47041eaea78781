package obs

import "testing"

// Micro-benchmarks for the always-on instrumentation: these bound the
// per-call overhead the pipeline pays for metrics (one or two atomic ops).

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := newHistogram(nil)
	for i := 0; i < b.N; i++ {
		h.Observe(0.0042)
	}
}
