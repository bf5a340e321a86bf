package core

import (
	"sync"
	"sync/atomic"
)

// forEach runs fn for every index in [0, n) on a bounded pool of workers
// goroutines (1 runs inline). Callers write results into per-index slots,
// so output order is deterministic regardless of scheduling. It is the
// campaign's one fan-out: the day and hour pipelines (through runOrdered)
// and the validation census. A scan context scans on the goroutine that
// runs it.
func forEach(n, workers int, fn func(i int)) {
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// runOrdered executes n indexed jobs on a bounded worker pool and commits
// each result in strict index order — the shared slot-committer shape
// behind both the day pipeline (RunDaily) and the hour pipeline
// (RunHourlyECH). run must be safe to call concurrently for distinct
// indices; commit is always called from a single goroutine, in order, as
// results become available, so committed state (the Store, progress
// output) never observes out-of-order writes. With workers <= 1 the jobs
// run strictly serially on the calling goroutine — run(0), commit(0),
// run(1), ... — which pipelined callers rely on for byte-identical
// serial baselines.
func runOrdered[T any](n, workers int, run func(i int) T, commit func(i int, res T)) {
	if n <= 0 {
		return
	}
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			commit(i, run(i))
		}
		return
	}
	type slot struct {
		res   T
		ready chan struct{}
	}
	slots := make([]slot, n)
	for i := range slots {
		slots[i].ready = make(chan struct{})
	}
	// The committer drains slots in index order as they fill.
	committed := make(chan struct{})
	go func() {
		defer close(committed)
		for i := range slots {
			<-slots[i].ready
			commit(i, slots[i].res)
		}
	}()
	forEach(n, workers, func(i int) {
		slots[i].res = run(i)
		close(slots[i].ready)
	})
	<-committed
}
