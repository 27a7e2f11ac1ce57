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

// ForEach calls fn(i) once for every i in [0, n) on at most min(workers, n)
// goroutines, the caller's among them, and returns when every call has
// returned. workers <= 0 means GOMAXPROCS; with one worker every call runs
// on the caller in index order — the serial reference the differential
// tests compare against. Goroutines claim the next unclaimed index, so an
// expensive job never holds up the ones behind it.
//
// The wait counts jobs, not goroutines: the caller returns as soon as the
// last job finishes, even if a helper it spawned has not started yet. Such a
// helper finds no index left, never calls fn, and exits unwaited. A call
// starts no helper while workers-1 helpers, its own or any other call's,
// are still out, so the process never has more helpers out than its widest
// call asked for and late ones cannot pile up. The caller claims jobs like
// any helper, so no job waits for a helper to start.
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
	r := takeRun()
	r.n, r.fn = int64(n), fn
	r.next.Store(0)
	r.wg.Add(n)
	helpers := reserveHelpers(int64(workers - 1))
	r.live.Store(1 + helpers)
	for range helpers {
		go r.helperFn()
	}
	r.work()
	r.wg.Wait()
	failed := r.failed
	r.leave()
	if failed != nil {
		panic(failed)
	}
}

// helpersOut counts the helpers started and not yet exited, process-wide.
var helpersOut atomic.Int64

// reserveHelpers counts out up to want more helpers, as many as keep
// helpersOut at or below want, and returns how many it counted.
func reserveHelpers(want int64) int64 {
	for {
		out := helpersOut.Load()
		k := want - out
		if k <= 0 {
			return 0
		}
		if helpersOut.CompareAndSwap(out, out+k) {
			return k
		}
	}
}

// freeRuns holds idle runs: a leaky buffer, which a GC does not empty as
// it does a sync.Pool. A run goes back only when the last goroutine using
// it leaves, so a call can find its predecessor's run still held by a
// helper that has not run yet; with at most workers-1 helpers out, 16
// slots keep every call up to 16 workers from allocating. A call that finds
// the buffer empty makes a run, and one that finds it full drops its own.
var freeRuns = make(chan *run, 16)

func takeRun() *run {
	select {
	case r := <-freeRuns:
		return r
	default:
		r := &run{}
		r.helperFn = r.helper
		return r
	}
}

// run is one ForEach call's shared state, kept between calls.
// wg counts the jobs not yet finished or written off; live counts the
// goroutines — the caller and its helpers — that have not yet left.
type run struct {
	n    int64
	fn   func(int)
	next atomic.Int64
	wg   sync.WaitGroup
	live atomic.Int64
	// helperFn is r.helper, bound once so that a go statement allocates no
	// method value.
	helperFn func()

	mu     sync.Mutex
	failed *PanicError
}

// helper is a spawned goroutine's whole life: claim jobs, then leave.
func (r *run) helper() {
	r.work()
	helpersOut.Add(-1)
	r.leave()
}

// leave drops one goroutine's hold on r. The last to leave clears what the
// call handed in and returns r to the free list: no goroutine still holding
// r ever sees it reset for the next call.
func (r *run) leave() {
	if r.live.Add(-1) != 0 {
		return
	}
	r.fn, r.failed = nil, nil
	select {
	case freeRuns <- r:
	default:
	}
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
