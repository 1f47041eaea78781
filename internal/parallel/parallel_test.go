package parallel

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"obfuscade/internal/obs"
)

func TestWorkersSizing(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d", got)
	}
	if got := Workers(7); got != 7 {
		t.Errorf("Workers(7) = %d", got)
	}
	if got := Workers(1 << 20); got != maxWorkers {
		t.Errorf("Workers(huge) = %d, want cap %d", got, maxWorkers)
	}
}

func TestSetDefault(t *testing.T) {
	defer SetDefault(0)
	SetDefault(3)
	if got := Default(); got != 3 {
		t.Errorf("Default() = %d after SetDefault(3)", got)
	}
	if got := Workers(0); got != 3 {
		t.Errorf("Workers(0) = %d with default 3", got)
	}
	SetDefault(0)
	if got := Default(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Default() = %d after reset", got)
	}
}

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		const n = 100
		counts := make([]int32, n)
		err := ForEachCtx(context.Background(), n, workers, func(_ context.Context, i int) error {
			atomic.AddInt32(&counts[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachZeroTasks(t *testing.T) {
	if err := ForEachCtx(context.Background(), 0, 4, func(context.Context, int) error { return errors.New("boom") }); err != nil {
		t.Errorf("n=0 should be a no-op, got %v", err)
	}
}

func TestErrorAggregationOrdered(t *testing.T) {
	sentinel := errors.New("bad key")
	for _, workers := range []int{1, 4} {
		err := ForEachCtx(context.Background(), 20, workers, func(_ context.Context, i int) error {
			if i%5 == 0 {
				return fmt.Errorf("index %d: %w", i, sentinel)
			}
			return nil
		})
		var list ErrorList
		if !errors.As(err, &list) {
			t.Fatalf("workers=%d: error type %T", workers, err)
		}
		if len(list) != 4 {
			t.Fatalf("workers=%d: %d errors, want 4", workers, len(list))
		}
		for j, te := range list {
			if te.Index != j*5 {
				t.Errorf("workers=%d: error %d has index %d, want %d (index order)",
					workers, j, te.Index, j*5)
			}
		}
		if !errors.Is(err, sentinel) {
			t.Errorf("workers=%d: errors.Is should see the wrapped sentinel", workers)
		}
		var te *TaskError
		if !errors.As(err, &te) {
			t.Errorf("workers=%d: errors.As should find a *TaskError", workers)
		}
	}
}

func TestErrorListDeterministicMessage(t *testing.T) {
	run := func() string {
		err := ForEachCtx(context.Background(), 16, 8, func(_ context.Context, i int) error {
			if i%3 == 0 {
				return fmt.Errorf("f%d", i)
			}
			return nil
		})
		return err.Error()
	}
	first := run()
	for trial := 0; trial < 5; trial++ {
		if got := run(); got != first {
			t.Fatalf("aggregated error message depends on scheduling:\n%q\nvs\n%q", first, got)
		}
	}
}

func TestCancellationStopsDispatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran int32
	err := ForEachCtx(ctx, 1000, 4, func(_ context.Context, i int) error {
		if atomic.AddInt32(&ran, 1) == 1 {
			cancel()
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := atomic.LoadInt32(&ran); n >= 1000 {
		t.Errorf("all %d tasks ran despite cancellation", n)
	}
}

func TestCancellationSerialPath(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran int32
	err := ForEachCtx(ctx, 10, 1, func(_ context.Context, i int) error {
		atomic.AddInt32(&ran, 1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran != 0 {
		t.Errorf("%d tasks ran on a pre-cancelled context", ran)
	}
}

func TestMapOrderedAssembly(t *testing.T) {
	for _, workers := range []int{1, 8} {
		out, err := Map(context.Background(), 50, workers, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapPartialOnError(t *testing.T) {
	out, err := Map(context.Background(), 4, 2, func(i int) (string, error) {
		if i == 2 {
			return "", errors.New("boom")
		}
		return fmt.Sprintf("v%d", i), nil
	})
	if err == nil {
		t.Fatal("want aggregated error")
	}
	want := []string{"v0", "v1", "", "v3"}
	for i, w := range want {
		if out[i] != w {
			t.Errorf("out[%d] = %q, want %q", i, out[i], w)
		}
	}
}

func TestSplitMixIndependentStreams(t *testing.T) {
	// Distinct (seed, index) pairs must give distinct seeds, and each
	// derived stream must be reproducible.
	seen := map[int64]bool{}
	for seed := int64(0); seed < 10; seed++ {
		for i := 0; i < 100; i++ {
			s := SplitMix(seed, i)
			if seen[s] {
				t.Fatalf("seed collision at (%d, %d)", seed, i)
			}
			seen[s] = true
		}
	}
	a := rand.New(rand.NewSource(SplitMix(42, 3))).NormFloat64()
	b := rand.New(rand.NewSource(SplitMix(42, 3))).NormFloat64()
	if a != b {
		t.Error("derived stream not reproducible")
	}
}

func TestForEachMetricsWorkerIndependent(t *testing.T) {
	// Counter totals (submitted/completed/failed) and histogram counts must
	// depend only on the workload, never on the pool size — the obs
	// determinism contract the CI bench gate relies on.
	run := func(workers int) (submitted, completed, failed, queueObs, taskObs int64) {
		obs.Default().Reset()
		_ = ForEachCtx(context.Background(), 24, workers, func(_ context.Context, i int) error {
			if i%6 == 0 {
				return errors.New("boom")
			}
			return nil
		})
		snap := obs.Default().Snapshot()
		submitted, _ = snap.Counter("parallel.tasks.submitted")
		completed, _ = snap.Counter("parallel.tasks.completed")
		failed, _ = snap.Counter("parallel.tasks.failed")
		if h, ok := snap.Stage("parallel.queue.wait.seconds"); ok {
			queueObs = h.Count
		}
		if h, ok := snap.Stage("parallel.task.seconds"); ok {
			taskObs = h.Count
		}
		return
	}
	for _, workers := range []int{1, 2, 8} {
		s, c, f, q, tk := run(workers)
		if s != 24 || c != 20 || f != 4 {
			t.Errorf("workers=%d: submitted/completed/failed = %d/%d/%d, want 24/20/4",
				workers, s, c, f)
		}
		if q != 24 || tk != 24 {
			t.Errorf("workers=%d: queue/task observations = %d/%d, want 24/24",
				workers, q, tk)
		}
	}
	obs.Default().Reset()
}

func TestForEachUtilizationGauges(t *testing.T) {
	obs.Default().Reset()
	err := ForEachCtx(context.Background(), 8, 2, func(_ context.Context, i int) error {
		time.Sleep(2 * time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := obs.Default().Snapshot()
	busy, okB := snap.Gauge("parallel.pool.busy.nanos")
	wall, okW := snap.Gauge("parallel.pool.wall.nanos")
	if !okB || !okW {
		t.Fatalf("pool gauges missing: busy=%v wall=%v", okB, okW)
	}
	if busy <= 0 || wall <= 0 {
		t.Errorf("non-positive pool time: busy=%d wall=%d", busy, wall)
	}
	// Busy time can never exceed the reserved worker-time by more than
	// scheduling noise; allow slack for coarse timers.
	if busy > 2*wall {
		t.Errorf("busy %dns implausibly exceeds reserved %dns", busy, wall)
	}
	if calls, _ := snap.Counter("parallel.foreach.calls"); calls != 1 {
		t.Errorf("foreach calls = %d, want 1", calls)
	}
	obs.Default().Reset()
}

// Regression: on a 1-worker pool the dispatcher itself checks ctx only
// between tasks. A long-running task must therefore observe cancellation
// through the worker context it receives — the job service relies on this
// to interrupt pipeline stages mid-task when a request deadline expires.
func TestSerialTaskObservesMidTaskCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	go func() {
		<-started
		cancel()
	}()
	err := ForEachCtx(ctx, 3, 1, func(wctx context.Context, i int) error {
		if i == 0 {
			close(started)
			select {
			case <-wctx.Done():
				return wctx.Err()
			case <-time.After(10 * time.Second):
				return fmt.Errorf("task never saw the cancellation")
			}
		}
		return fmt.Errorf("task %d ran after cancellation", i)
	})
	if err == nil {
		t.Fatal("expected an error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
