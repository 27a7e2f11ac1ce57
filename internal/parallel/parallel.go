// Package parallel is the repository's one fan-out: run n independent,
// index-addressed jobs on a bounded set of goroutines and return when all
// have finished. Callers give every job its own result slot and fold the
// slots in index order afterwards, which is what makes their output
// identical at any worker count; ForEach itself promises nothing about
// which goroutine runs which index or in what order jobs finish.
package parallel

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is what ForEach panics with, on the calling goroutine, when a
// job panicked: the job's index, the value it panicked with, and the stack
// of the goroutine it was running on.
type PanicError struct {
	Index int
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: job %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// ForEach calls fn(i) once for every i in [0, n) on min(workers, n)
// goroutines, the caller's among them, and returns when every call has
// returned. workers <= 0 means GOMAXPROCS; with one worker every call runs
// on the caller in index order — the serial reference the differential
// tests compare against. Goroutines claim the next unclaimed index, so an
// expensive job never holds up the ones behind it.
//
// The wait counts jobs, not goroutines: the caller returns as soon as the
// last job finishes, even if a helper it spawned has not started yet. Such a
// helper finds no index left, never calls fn, and exits unwaited.
//
// A panic in fn never unwinds a goroutine the caller cannot recover on. It
// stops further indexes from being claimed, lets the jobs already running
// finish, and is re-raised on the caller as a *PanicError. Indexes are
// claimed in increasing order, so every job below a panicking one has
// already been claimed and will be waited for: when several jobs panic, the
// one reported is the lowest-indexed, whatever the worker count.
func ForEach(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	r := &run{n: int64(n), fn: fn}
	r.wg.Add(n)
	for w := 1; w < workers; w++ {
		go r.work()
	}
	r.work()
	r.wg.Wait()
	if r.failed != nil {
		panic(r.failed)
	}
}

// run is one ForEach call's shared state: a single allocation, whatever n.
// wg counts the jobs not yet finished or written off.
type run struct {
	n    int64
	fn   func(int)
	next atomic.Int64
	wg   sync.WaitGroup

	mu     sync.Mutex
	failed *PanicError
}

// work claims and runs jobs until none are left or one of them panics.
func (r *run) work() {
	var i int64
	defer func() {
		if v := recover(); v != nil {
			r.fail(&PanicError{Index: int(i), Value: v, Stack: debug.Stack()})
		}
	}()
	for {
		if i = r.next.Add(1) - 1; i >= r.n {
			return
		}
		r.fn(int(i))
		r.wg.Done()
	}
}

// fail records the lowest-indexed panic and stops further claims. It then
// finishes the panicking job and the tail nobody will claim: the indexes
// from the claim counter it swapped out up to n. Claims past n by other
// goroutines are not jobs, and a second failure swaps out at least n.
func (r *run) fail(e *PanicError) {
	unclaimed := max(r.n-r.next.Swap(r.n), 0)
	r.mu.Lock()
	if r.failed == nil || e.Index < r.failed.Index {
		r.failed = e
	}
	r.mu.Unlock()
	r.wg.Add(-int(1 + unclaimed))
}
