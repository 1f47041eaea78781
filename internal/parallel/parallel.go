// Package parallel is the deterministic bounded worker pool used by the
// hot paths of the manufacture pipeline (quality matrix, key-space
// brute-force analysis, tensile replicates, per-layer slicing, the
// paper's experiment regenerators).
//
// Design rules that make parallel output byte-identical to serial output:
//
//   - Tasks are indexed 0..n-1 and results are always assembled by index,
//     never by completion order.
//   - Tasks must not share mutable state; anything random derives an
//     independent, seed-derived stream per index (see parallel.SplitMix).
//   - Errors are captured per task and aggregated in index order, so the
//     combined error message does not depend on scheduling.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"obfuscade/internal/obs"
	"obfuscade/internal/trace"
)

// Pool metrics (package obs). Counters and histogram counts are
// deterministic for a given workload; the gauges accumulate wall-clock
// nanoseconds (busy vs reserved) from which worker utilization derives.
var (
	mSubmitted = obs.Default().Counter("parallel.tasks.submitted")
	mCompleted = obs.Default().Counter("parallel.tasks.completed")
	mFailed    = obs.Default().Counter("parallel.tasks.failed")
	gActive    = obs.Default().Gauge("parallel.workers.active")
	gBusyNanos = obs.Default().Gauge("parallel.pool.busy.nanos")
	gWallNanos = obs.Default().Gauge("parallel.pool.wall.nanos")
	hQueueWait = obs.Default().Histogram("parallel.queue.wait.seconds", nil)
	hTask      = obs.Default().Histogram("parallel.task.seconds", nil)
	stForEach  = trace.NewStage("stage", "parallel.foreach")
)

// maxWorkers is a sanity cap on explicitly requested pool sizes.
const maxWorkers = 256

// defaultWorkers holds the process-wide default pool size; 0 means
// GOMAXPROCS. CLIs set it from their -workers flag.
var defaultWorkers atomic.Int64

// SetDefault sets the process-wide default worker count used when a call
// site passes workers <= 0. n <= 0 restores the GOMAXPROCS default.
func SetDefault(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// Default returns the current default worker count.
func Default() int {
	if n := int(defaultWorkers.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Workers normalises a requested pool size: values <= 0 mean Default()
// (GOMAXPROCS-capped fan-out); explicit requests are honoured up to a
// sanity cap so a typo cannot spawn unbounded goroutines.
func Workers(requested int) int {
	if requested <= 0 {
		return Default()
	}
	if requested > maxWorkers {
		return maxWorkers
	}
	return requested
}

// TaskError records the failure of one indexed task.
type TaskError struct {
	// Index is the task index the error belongs to.
	Index int
	// Err is the task's error.
	Err error
}

// Error implements error.
func (e *TaskError) Error() string { return fmt.Sprintf("task %d: %v", e.Index, e.Err) }

// Unwrap exposes the underlying error to errors.Is / errors.As.
func (e *TaskError) Unwrap() error { return e.Err }

// ErrorList aggregates task errors in ascending index order.
type ErrorList []*TaskError

// Error implements error.
func (l ErrorList) Error() string {
	switch len(l) {
	case 0:
		return "parallel: no errors"
	case 1:
		return l[0].Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d tasks failed: ", len(l))
	for i, e := range l {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(e.Error())
	}
	return b.String()
}

// Unwrap exposes every task error to errors.Is / errors.As.
func (l ErrorList) Unwrap() []error {
	out := make([]error, len(l))
	for i, e := range l {
		out[i] = e
	}
	return out
}

// ForEachCtx runs fn(ctx, i) for i in [0, n) on a bounded pool of
// workers (workers <= 0 means Default()). Every task error is captured;
// the aggregate is returned as an ErrorList ordered by index, so the
// result — including the error — is independent of scheduling.
// Cancelling ctx stops dispatching new tasks; tasks already running
// finish, and the returned error wraps ctx's error.
//
// fn writes to caller-owned, per-index storage; ForEachCtx guarantees
// that all such writes happen-before it returns.
//
// fn receives a task context derived from ctx and tagged with the worker
// lane running it (trace.WithWorker), so trace events emitted inside the
// task carry worker attribution and parent to the caller's span. The
// lane a task lands on is scheduling-dependent; deterministic work must
// not branch on it.
func ForEachCtx(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) (err error) {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	w := Workers(workers)
	if w > n {
		w = n
	}

	// Instrumentation: queue wait is measured from dispatch start to task
	// start; per-task busy time feeds the utilization gauges. The serial
	// fast path below wraps fn identically, so counter totals and
	// histogram counts are independent of the worker count. The stage
	// span parents to the caller's span, but tasks still receive the
	// caller's ctx, so their spans stay siblings of it, not children.
	mSubmitted.Add(int64(n))
	_, sp := stForEach.Start(ctx)
	dispatchStart := time.Now()
	task := fn
	run := func(wctx context.Context, i int) error {
		hQueueWait.Observe(time.Since(dispatchStart).Seconds())
		gActive.Add(1)
		t0 := time.Now()
		err := task(wctx, i)
		busy := time.Since(t0)
		gActive.Add(-1)
		gBusyNanos.Add(busy.Nanoseconds())
		hTask.Observe(busy.Seconds())
		if err != nil {
			mFailed.Inc()
		} else {
			mCompleted.Inc()
		}
		return err
	}
	defer func() {
		gWallNanos.Add(time.Since(dispatchStart).Nanoseconds() * int64(w))
		sp.EndErr(err)
	}()

	if w == 1 {
		// Serial fast path: identical semantics, no goroutines.
		wctx := trace.WithWorker(ctx, 0)
		var errs ErrorList
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return append(errs, &TaskError{Index: i, Err: ctx.Err()})
			}
			if err := run(wctx, i); err != nil {
				errs = append(errs, &TaskError{Index: i, Err: err})
			}
		}
		if len(errs) == 0 {
			return nil
		}
		return errs
	}

	var (
		next int64 = -1
		mu   sync.Mutex
		errs ErrorList
		wg   sync.WaitGroup
	)
	canceled := false
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			wctx := trace.WithWorker(ctx, lane)
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					mu.Lock()
					if !canceled {
						canceled = true
						errs = append(errs, &TaskError{Index: i, Err: err})
					}
					mu.Unlock()
					return
				}
				if err := run(wctx, i); err != nil {
					mu.Lock()
					errs = append(errs, &TaskError{Index: i, Err: err})
					mu.Unlock()
				}
			}
		}(g)
	}
	wg.Wait()
	if len(errs) == 0 {
		return nil
	}
	sort.Slice(errs, func(a, b int) bool { return errs[a].Index < errs[b].Index })
	return errs
}

// Map runs fn(i) for i in [0, n) on a bounded pool and returns the
// results assembled in index order. Failed indices keep the zero value;
// the error (if any) is an ErrorList ordered by index. The partial result
// slice is always returned so callers can salvage completed work.
func Map[T any](ctx context.Context, n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEachCtx(ctx, n, workers, func(_ context.Context, i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	return out, err
}

// SplitMix derives an independent RNG seed for sub-stream i of a parent
// seed using the splitmix64 finaliser. Parallel tasks each seed their own
// rand.Rand from SplitMix(seed, i) so the noise a task draws depends only
// on (seed, i), never on which worker ran it or in what order.
func SplitMix(seed int64, i int) int64 {
	z := uint64(seed) + (uint64(i)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}
