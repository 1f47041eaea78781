package main

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"
)

func ascending(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n       int
		target  float64
		wantP   float64
		wantOK  bool
		wantVal float64
	}{
		{n: 1000, target: 99, wantP: 99, wantOK: true, wantVal: 990},
		{n: 10000, target: 99, wantP: 99, wantOK: true, wantVal: 9900},
		{n: 10000, target: 99.9, wantP: 99.9, wantOK: true, wantVal: 9990},
		{n: 999, target: 99, wantP: 95, wantOK: true, wantVal: 950}, // p99 leaves 9 beyond
		{n: 200, target: 95, wantP: 95, wantOK: true, wantVal: 190},
		{n: 199, target: 95, wantP: 90, wantOK: true, wantVal: 180}, // p95 leaves 9 beyond
		{n: 100, target: 99, wantP: 90, wantOK: true, wantVal: 90},
		{n: 15, target: 99, wantP: 0, wantOK: false, wantVal: 8},
	} {
		got, ok := tailOf(ascending(tc.n), tc.target)
		if ok != tc.wantOK || (ok && (got.P != tc.wantP || got.Value != tc.wantVal)) || (!ok && got.Value != tc.wantVal) {
			t.Errorf("n=%d target=%g: got p%g = %g ok=%t, want p%g = %g ok=%t",
				tc.n, tc.target, got.P, got.Value, ok, tc.wantP, tc.wantVal, tc.wantOK)
		}
		if ok && got.Beyond < minBeyond {
			t.Errorf("n=%d: p%g has only %d samples beyond it", tc.n, got.P, got.Beyond)
		}
		if got.N != tc.n {
			t.Errorf("n=%d: sample count %d", tc.n, got.N)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(vals, n=4), whose values were computed by hand from
// its exclusive-method definition.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		vals      []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 5, 8.5},
		{[]float64{4, 1}, 0.25, 2.5, 4.75},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
	} {
		q1, m, q3 := quartiles(tc.vals)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(m-tc.m) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", tc.vals, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}

// fakeClock is a clock that only moves when a sender sleeps or a send
// takes time, so open-loop timing is exact.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(_ context.Context, t time.Time) {
	c.advanceTo(t)
}

func (c *fakeClock) advanceTo(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.now) {
		c.now = t
	}
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	start := time.Unix(1000, 0)
	// Each send takes 3 ms against a request due every 1 ms: request j is
	// due at j ms but, queued behind the ones before it, completes at
	// 3(j+1) ms, so its latency from due time is 2j+3 ms.
	clk := &fakeClock{now: start}
	st := openLoop(context.Background(), clk, 1, 1000, 100*time.Millisecond, func(context.Context, int, int) error {
		clk.advance(3 * time.Millisecond)
		return nil
	})
	if st.Sent != 100 || len(st.Lat) != 100 {
		t.Fatalf("sent %d, %d latencies, want 100", st.Sent, len(st.Lat))
	}
	for j, lat := range st.Lat {
		if want := float64(2*j + 3); lat != want {
			t.Fatalf("latency %d = %g ms, want %g ms from due time", j, lat, want)
		}
	}
	if st.Actual != 300*time.Millisecond {
		t.Errorf("step took %v, want 300ms", st.Actual)
	}
	if len(st.Lag) != 0 {
		t.Errorf("a sender that is always late never sleeps, yet %d lags recorded", len(st.Lag))
	}
	if st.meetsSLO(1000) {
		t.Error("a step three times its scheduled length meets the SLO")
	}

	// A send that takes half the interval keeps up: latency is the
	// service time and the generator is never late.
	clk = &fakeClock{now: start}
	st = openLoop(context.Background(), clk, 1, 1000, 100*time.Millisecond, func(context.Context, int, int) error {
		clk.advance(500 * time.Microsecond)
		return nil
	})
	for _, lat := range st.Lat {
		if lat != 0.5 {
			t.Fatalf("latency %g ms, want 0.5", lat)
		}
	}
	if len(st.Lag) != 99 || st.Lag[len(st.Lag)-1] != 0 {
		t.Errorf("lags %d (max %v), want 99 zero lags", len(st.Lag), st.Lag)
	}
	if !st.meetsSLO(1) || st.Actual != 99500*time.Microsecond {
		t.Errorf("step that keeps up: actual %v, meets SLO %t", st.Actual, st.meetsSLO(1))
	}
}

func TestLadder(t *testing.T) {
	step := func(rate, p99 float64, failed int, stretch float64) stepStats {
		s := stepStats{Rate: rate, Scheduled: time.Second, Actual: time.Duration(stretch * float64(time.Second))}
		// 100 samples: the nearest-rank p99 is the 99th.
		for i := range 100 {
			v := 1.0
			if i >= 98 {
				v = p99
			}
			s.Lat = append(s.Lat, v)
		}
		for range failed {
			s.Failed = append(s.Failed, "x")
		}
		return s
	}
	for _, tc := range []struct {
		name  string
		steps []stepStats
		want  float64
	}{
		{"all meet", []stepStats{step(1000, 2, 0, 1), step(2000, 5, 0, 1), step(3000, 9, 0, 1.05)}, 3000},
		{"p99 over the limit", []stepStats{step(1000, 2, 0, 1), step(2000, 11, 0, 1), step(3000, 9, 0, 1)}, 1000},
		{"a failure", []stepStats{step(1000, 2, 0, 1), step(2000, 2, 1, 1), step(3000, 2, 0, 1)}, 1000},
		{"backlog", []stepStats{step(1000, 2, 0, 1), step(2000, 2, 0, 1.2)}, 1000},
		{"first step fails", []stepStats{step(1000, 20, 0, 1), step(2000, 2, 0, 1)}, 0},
	} {
		if got := maxRateMeetingSLO(tc.steps, 10); got != tc.want {
			t.Errorf("%s: max rate %g, want %g", tc.name, got, tc.want)
		}
	}
	if ladderDone(step(1000, 99, 0, 1), 10) {
		t.Error("ladder stopped at p99 = 9.9× the limit")
	}
	if !ladderDone(step(1000, 101, 0, 1), 10) {
		t.Error("ladder went on past p99 = 10.1× the limit")
	}
}
