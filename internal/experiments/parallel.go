package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// forEachRun executes fn(run) for run ∈ [0, runs) across a bounded
// worker pool and returns the first error. Each repetition of a §7
// experiment owns its private region and client, so repetitions are
// embarrassingly parallel; results must be written into
// pre-allocated, per-run slots (no shared accumulation inside fn).
//
// Dispatch stops at the first error: repetitions already running
// finish, but no new ones start, so a failed sweep returns promptly
// instead of burning the rest of the schedule.
func forEachRun(runs int, fn func(run int) error) error {
	return forEachCellRun(1, runs, nil, func(_, run int) error { return fn(run) })
}

// forEachCellRun feeds every (cell, run) pair of a sweep — cell-major,
// runs ascending within a cell — into one bounded worker pool sized to
// GOMAXPROCS. It is one pool rather than one per cell because a
// per-cell barrier leaves workers idle at every cell edge while the
// cell's slowest repetition finishes; one pool drains the whole
// cell×run grid continuously.
//
// The worker callback writes its outcome into a pre-allocated
// per-(cell, run) slot and never touches shared state, so the caller
// reduces the slots serially in index order after the pool drains:
// every observable byte is independent of GOMAXPROCS and of the OS
// scheduler.
//
// traced, when non-nil, marks cells whose run-0 repetition feeds a
// shared flight recorder. Those repetitions are chained: cell c's
// traced run may only start once cell c−1's traced run has finished,
// which preserves the sequential byte stream — all of cell c's
// emissions precede cell c+1's — while every untraced repetition
// schedules freely around them. The chain cannot deadlock: pairs are
// dispatched in cell order, so the gate a traced run waits on always
// belongs to a pair already taken by some worker, and gates close
// unconditionally (error or not).
//
// The first error (by completion order) is returned, and dispatch
// stops as soon as one is recorded: repetitions already running
// finish, but no new ones start.
func forEachCellRun(cells, runs int, traced func(cell int) bool, fn func(cell, run int) error) error {
	total := cells * runs
	workers := runtime.GOMAXPROCS(0)
	if workers > total {
		workers = total
	}
	if workers < 1 {
		workers = 1
	}

	type item struct {
		cell, run  int
		gate, done chan struct{} // traced-run chain; nil = ungated
	}

	var stop atomic.Bool
	errOnce := sync.Once{}
	var firstErr error
	jobs := make(chan item)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range jobs {
				if it.gate != nil {
					<-it.gate
				}
				// The done channel must close even when the work is
				// skipped or fails, or the next traced run would wait
				// forever.
				if !stop.Load() {
					if err := fn(it.cell, it.run); err != nil {
						errOnce.Do(func() { firstErr = err })
						stop.Store(true)
					}
				}
				if it.done != nil {
					close(it.done)
				}
			}
		}()
	}

	var prevTraced chan struct{}
feed:
	for cell := 0; cell < cells; cell++ {
		for run := 0; run < runs; run++ {
			if stop.Load() {
				break feed
			}
			it := item{cell: cell, run: run}
			if run == 0 && traced != nil && traced(cell) {
				it.gate = prevTraced
				it.done = make(chan struct{})
				prevTraced = it.done
			}
			jobs <- it
		}
	}
	close(jobs)
	wg.Wait()
	return firstErr
}
