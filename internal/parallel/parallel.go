// Package parallel is the deterministic fan-out engine for the experiment
// harness. It runs independent tasks — experiment rows, trials, whole
// experiment tables — on a bounded worker pool while guaranteeing that
// results come back in submission order, so every output table is
// byte-identical to a sequential run.
//
// Determinism contract: tasks must not communicate with each other and must
// derive all randomness from their own index (see TaskSeed). Under that
// contract the results of Map are a pure function of the inputs, and the
// worker count only changes wall time, never output. The determinism tests
// in internal/experiments hold the harness to this.
//
// Nesting is safe and bounded: the pool is a shared semaphore, and the
// submitting goroutine always works through the task list itself, so a task
// that fans out sub-tasks on the same pool can never deadlock — when no
// worker slot is free the sub-tasks simply run inline on the submitter.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a bounded supply of worker slots shared by every Map/ForEach call
// that references it. A nil *Pool is valid and means "run sequentially", so
// callers can thread one optional pool through their options without
// special-casing.
type Pool struct {
	workers int
	slots   chan struct{}
}

// New returns a pool with the given number of worker slots. workers <= 0
// selects GOMAXPROCS. A pool of 1 never spawns helper goroutines: every
// task runs inline on the caller, which is the reference sequential mode.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{
		workers: workers,
		slots:   make(chan struct{}, workers-1),
	}
}

// Workers returns the pool's worker count (1 for a nil pool).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// taskPanic carries a recovered task panic (plus its index) from a worker
// back to the submitting goroutine, where it is re-raised.
type taskPanic struct {
	index int
	value any
}

// ForEach runs fn(i) for every i in [0,n). Tasks are claimed from a shared
// counter by the caller and by up to Workers()-1 helper goroutines (fewer
// when the pool's slots are busy with other ForEach calls). It returns only
// after every task finished. If any task panics, ForEach re-panics with the
// first panic observed (by completion order) after all workers stop.
func ForEach(p *Pool, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if p == nil || p.workers == 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}

	var next atomic.Int64
	var firstPanic atomic.Pointer[taskPanic]
	run := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						firstPanic.CompareAndSwap(nil, &taskPanic{index: i, value: r})
					}
				}()
				fn(i)
			}()
		}
	}

	var wg sync.WaitGroup
	// Recruit helpers only while free slots exist; the caller is always the
	// last worker, so progress never depends on slot availability.
	for spawned := 0; spawned < p.workers-1 && spawned < n-1; spawned++ {
		select {
		case p.slots <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-p.slots }()
				run()
			}()
		default:
			spawned = p.workers // no free slot: stop recruiting
		}
	}
	run()
	wg.Wait()
	if tp := firstPanic.Load(); tp != nil {
		panic(fmt.Sprintf("parallel: task %d panicked: %v", tp.index, tp.value))
	}
}

// Map runs fn(i) for every i in [0,n) on the pool and returns the results
// indexed by submission order — the ordering guarantee the experiment
// tables rely on.
func Map[T any](p *Pool, n int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(p, n, func(i int) { out[i] = fn(i) })
	return out
}

// TaskSeed derives a deterministic per-task RNG seed from an experiment
// name and a (side, trial) pair, independent of scheduling: FNV-1a over the
// identifying tuple, finished with a splitmix64 avalanche so structurally
// close tasks (trial n vs n+1) get statistically unrelated streams.
func TaskSeed(experiment string, side, trial int) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(experiment); i++ {
		h ^= uint64(experiment[i])
		h *= prime64
	}
	for _, v := range [2]uint64{uint64(int64(side)), uint64(int64(trial))} {
		for shift := 0; shift < 64; shift += 8 {
			h ^= (v >> shift) & 0xff
			h *= prime64
		}
	}
	// splitmix64 finalizer
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	h ^= h >> 31
	return int64(h)
}
