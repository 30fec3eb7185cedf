package experiments

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestForEachRunStopsFeedingAfterError: once a repetition fails, the
// scheduler must stop dispatching new work — repetitions already in
// flight may finish, but the tail of the schedule never starts. The
// first worker blocks until the error has been recorded, so every
// not-yet-dispatched repetition observes the stop flag.
func TestForEachRunStopsFeedingAfterError(t *testing.T) {
	const runs = 1000
	boom := errors.New("boom")
	var started atomic.Int64
	run0done := make(chan struct{})
	err := forEachRun(runs, func(run int) error {
		started.Add(1)
		if run == 0 {
			defer close(run0done)
			return boom
		}
		// Everyone else waits for run 0's failure, so only the
		// repetitions already in flight when the error lands can run.
		<-run0done
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	// Run 0 fails while at most workers−1 other repetitions are in
	// flight; once stop is set nothing new starts. With a worker pool
	// far smaller than 1000 the tail must stay unscheduled.
	if n := started.Load(); n >= runs {
		t.Fatalf("all %d repetitions started despite an early error", n)
	}
}

// TestForEachRunOneWorkerStopsAfterError pins the single-worker edge of
// the stop-after-first-error contract: the worker records the error
// and sets the stop flag before it takes the next repetition, so at
// GOMAXPROCS=1 exactly one repetition runs.
func TestForEachRunOneWorkerStopsAfterError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	boom := errors.New("boom")
	var ran atomic.Int32
	err := forEachRun(100, func(run int) error {
		ran.Add(1)
		if run == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if n := ran.Load(); n != 1 {
		t.Fatalf("%d repetitions ran at one worker, want 1", n)
	}
}

// TestForEachRunFirstError: the returned error is the first recorded
// by completion order, and it is stable when only one run fails.
func TestForEachRunFirstError(t *testing.T) {
	boom := errors.New("boom-7")
	err := forEachRun(20, func(run int) error {
		if run == 7 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if err := forEachRun(20, func(int) error { return nil }); err != nil {
		t.Fatalf("clean schedule returned %v", err)
	}
}

// TestForEachCellRunCoversGrid: every (cell, run) pair executes exactly
// once and results can be aggregated per pre-allocated slot.
func TestForEachCellRunCoversGrid(t *testing.T) {
	const cells, runs = 7, 11
	var counts [cells][runs]atomic.Int64
	err := forEachCellRun(cells, runs, nil, func(cell, run int) error {
		counts[cell][run].Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < cells; c++ {
		for r := 0; r < runs; r++ {
			if n := counts[c][r].Load(); n != 1 {
				t.Fatalf("pair (%d,%d) ran %d times", c, r, n)
			}
		}
	}
}

// TestForEachCellRunTracedChain: traced run-0 repetitions must execute
// serially in cell order — the invariant that keeps the shared flight
// recorder's byte stream identical to the old per-cell loop.
func TestForEachCellRunTracedChain(t *testing.T) {
	const cells, runs = 9, 5
	var mu sync.Mutex
	var order []int
	var concurrent, maxConcurrent atomic.Int64
	err := forEachCellRun(cells, runs, func(int) bool { return true }, func(cell, run int) error {
		if run != 0 {
			return nil
		}
		if c := concurrent.Add(1); c > maxConcurrent.Load() {
			maxConcurrent.Store(c)
		}
		mu.Lock()
		order = append(order, cell)
		mu.Unlock()
		concurrent.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := maxConcurrent.Load(); n > 1 {
		t.Fatalf("%d traced runs overlapped", n)
	}
	if len(order) != cells {
		t.Fatalf("traced %d cells, want %d", len(order), cells)
	}
	for i, c := range order {
		if c != i {
			t.Fatalf("traced order %v is not cell order", order)
		}
	}
}

// TestForEachCellRunTracedChainSurvivesError: an error in an untraced
// repetition must not deadlock the traced chain — done gates close
// even when work is skipped.
func TestForEachCellRunTracedChainSurvivesError(t *testing.T) {
	boom := errors.New("boom")
	err := forEachCellRun(6, 4, func(int) bool { return true }, func(cell, run int) error {
		if cell == 0 && run == 1 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}
