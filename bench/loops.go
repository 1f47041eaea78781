package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// newClient returns an HTTP client holding at most one connection, so n
// clients open at most n connections.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}}
}

// post sends body and decodes a 200 response into out. The returned
// latency covers the request and reading the whole response.
func post(ctx context.Context, c *http.Client, url, contentType string, body []byte, out any) (time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", contentType)
	t0 := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return lat, err
	}
	if resp.StatusCode != http.StatusOK {
		return lat, fmt.Errorf("POST %s: %s: %.200s", url, resp.Status, data)
	}
	return lat, json.Unmarshal(data, out)
}

// opFunc performs operation i on behalf of client c and returns its
// latency. It times itself, so per-request preparation stays off the clock.
type opFunc func(ctx context.Context, client, i int) (time.Duration, error)

// loopStats is what a request loop observed.
type loopStats struct {
	attempted int
	lat       []time.Duration // successful operations
	failed    []string
	wall      time.Duration
}

func (s *loopStats) merge(o loopStats) {
	s.attempted += o.attempted
	s.lat = append(s.lat, o.lat...)
	s.failed = append(s.failed, o.failed...)
}

// closedLoop runs clients that each start their next operation as soon as
// the previous one finished, until d has passed. Operations are numbered in
// the order clients take them.
func closedLoop(ctx context.Context, clients int, d time.Duration, op opFunc) loopStats {
	var next atomic.Int64
	deadline := time.Now().Add(d)
	return runClients(ctx, clients, func(ctx context.Context, c int, st *loopStats) {
		for ctx.Err() == nil && time.Now().Before(deadline) {
			record(st, int(next.Add(1)-1), func(i int) (time.Duration, error) { return op(ctx, c, i) })
		}
	})
}

// forEachOp runs operations 0..n-1 across clients, each client taking the
// next as soon as it is free.
func forEachOp(ctx context.Context, clients, n int, op opFunc) loopStats {
	var next atomic.Int64
	return runClients(ctx, clients, func(ctx context.Context, c int, st *loopStats) {
		for ctx.Err() == nil {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			record(st, i, func(i int) (time.Duration, error) { return op(ctx, c, i) })
		}
	})
}

func record(st *loopStats, i int, op func(int) (time.Duration, error)) {
	lat, err := op(i)
	st.attempted++
	if err != nil {
		st.failed = append(st.failed, fmt.Sprintf("op %d: %v", i, err))
		return
	}
	st.lat = append(st.lat, lat)
}

func runClients(ctx context.Context, clients int, body func(ctx context.Context, c int, st *loopStats)) loopStats {
	per := make([]loopStats, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			body(ctx, c, &per[c])
		}(c)
	}
	wg.Wait()
	var out loopStats
	for _, p := range per {
		out.merge(p)
	}
	out.wall = time.Since(start)
	return out
}

// clock is the time source of the open loop; tests substitute a fake.
type clock interface {
	Now() time.Time
	SleepUntil(ctx context.Context, t time.Time)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) SleepUntil(ctx context.Context, t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-tm.C:
	case <-ctx.Done():
	}
}

// stepStats is one open-loop step at a fixed rate.
type stepStats struct {
	Rate      float64       `json:"rate"`
	Scheduled time.Duration `json:"scheduled_ns"`
	// Actual runs from the step's start to its last completion; it grows
	// past Scheduled when a backlog builds.
	Actual time.Duration `json:"actual_ns"`
	Sent   int           `json:"sent"`
	Failed []string      `json:"failed,omitempty"`
	// Lat is each successful request's latency from the time it was due,
	// in ms, ascending: a stall delays every request queued behind it and
	// the wait counts against the system.
	Lat []float64 `json:"-"`
	// Lag is how late a sender woke for a request it was waiting to send,
	// in ms, ascending: the generator's own lateness.
	Lag []float64 `json:"-"`
}

// openLoop sends requests on a fixed schedule, request j due at
// start + j/rate, for d. senders goroutines share the schedule; a sender
// that is free early sleeps until the next request is due, one that is late
// sends at once.
func openLoop(ctx context.Context, clk clock, senders int, rate float64, d time.Duration, send func(ctx context.Context, sender, j int) error) stepStats {
	n := int(rate * d.Seconds())
	start := clk.Now()
	var next atomic.Int64
	type lane struct {
		lat, lag []float64
		failed   []string
		last     time.Time
	}
	lanes := make([]lane, senders)
	var wg sync.WaitGroup
	for s := range senders {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			ln := &lanes[s]
			for ctx.Err() == nil {
				j := int(next.Add(1) - 1)
				if j >= n {
					return
				}
				due := start.Add(time.Duration(float64(j) / rate * float64(time.Second)))
				if clk.Now().Before(due) {
					clk.SleepUntil(ctx, due)
					ln.lag = append(ln.lag, ms(clk.Now().Sub(due)))
				}
				err := send(ctx, s, j)
				done := clk.Now()
				if done.After(ln.last) {
					ln.last = done
				}
				if err != nil {
					ln.failed = append(ln.failed, fmt.Sprintf("request %d at %.0f/s: %v", j, rate, err))
					continue
				}
				ln.lat = append(ln.lat, ms(done.Sub(due)))
			}
		}(s)
	}
	wg.Wait()
	st := stepStats{Rate: rate, Scheduled: d, Sent: n}
	last := start
	for _, ln := range lanes {
		st.Lat = append(st.Lat, ln.lat...)
		st.Lag = append(st.Lag, ln.lag...)
		st.Failed = append(st.Failed, ln.failed...)
		if ln.last.After(last) {
			last = ln.last
		}
	}
	st.Actual = last.Sub(start)
	slices.Sort(st.Lat)
	slices.Sort(st.Lag)
	return st
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// meetsSLO reports whether a step met the latency limit (p99 within
// limitMS), failed nothing, and finished within 10% of its scheduled
// length, so no backlog grew.
func (s stepStats) meetsSLO(limitMS float64) bool {
	return len(s.Failed) == 0 && len(s.Lat) > 0 &&
		percentile(s.Lat, 99) <= limitMS && s.Actual <= s.Scheduled+s.Scheduled/10
}

// maxRateMeetingSLO returns the highest rate among ascending steps at which
// that step and every lower one met the SLO, or 0 if the first did not.
func maxRateMeetingSLO(steps []stepStats, limitMS float64) float64 {
	best := 0.0
	for _, s := range steps {
		if !s.meetsSLO(limitMS) {
			break
		}
		best = s.Rate
	}
	return best
}

// ladderDone reports whether a rate ladder should stop after step s: its
// p99 passed ten times the limit, so higher rates cannot meet it.
func ladderDone(s stepStats, limitMS float64) bool {
	return len(s.Lat) == 0 || percentile(s.Lat, 99) > 10*limitMS
}
