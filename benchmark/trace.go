package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The tracer records where an op's time goes, from outside the program: the
// benchmark's wrappers (tracedDevice, tracedScheduler, ...) call add around
// every call into a layer. Calls into one layer from one parent are folded
// into a single span per op — a size sweep makes tens of thousands of device
// calls, and a span each would cost more than the calls — so a span carries
// the first start, the last end, the summed busy time and the call count.
// A span's self time is its busy time minus its children's busy time.

// span is one (op, slot) record of the trace file.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"` // first call's start, ns since trace start
	End    int64  `json:"end_ns"`   // last call's end
	Busy   int64  `json:"busy_ns"`  // summed duration of the folded calls
	Count  int64  `json:"count"`    // calls folded into this span
	Parent int    `json:"parent"`   // index of the parent span in the file, -1 for an op
	Op     int    `json:"op"`
}

// slot is one node of the static call tree: a named boundary under a parent.
type slot struct {
	name, layer string
	parent      int
}

// slotAcc accumulates one slot's calls during the current op. Atomics,
// because sched.Run and fleet.Run call the wrappers from worker goroutines.
type slotAcc struct {
	busy, count, first, last atomic.Int64
}

const (
	maxSlots = 64
	rootSlot = 0
	// maxSpans bounds the preallocated span buffer; later ops still feed the
	// per-slot totals the budget is computed from, only their spans are
	// dropped (and counted).
	maxSpans = 1 << 17
)

type tracer struct {
	t0 time.Time
	// clock is what one timed section costs when it contains nothing: it is
	// taken off every timed call, or a 60 ns device call would be billed
	// half again its time.
	clock time.Duration

	mu    sync.Mutex // guards slots/index growth only
	slots []slot
	index map[slot]int

	acc [maxSlots]slotAcc

	spans   []span
	dropped int

	// totals over every traced op, per slot.
	busy  [maxSlots]int64
	count [maxSlots]int64
	ops   int
	opNS  int64
}

// newTracer returns a tracer whose ops are calls into rootLayer ("" for
// benchmark glue) with room for `spans` spans; a layer probe that only wants
// the totals passes 0.
func newTracer(rootLayer string, spans int) *tracer {
	t := &tracer{
		t0:    time.Now(),
		index: map[slot]int{},
		spans: make([]span, 0, spans),
	}
	t.slots = append(t.slots, slot{name: "op", layer: rootLayer, parent: -1})
	empty := make([]float64, 1001)
	for i := range empty {
		t0 := time.Now()
		empty[i] = float64(time.Since(t0))
	}
	t.clock = time.Duration(median(empty))
	return t
}

// slot returns the id of the boundary `name` under parent, creating it on
// first use. Wrappers resolve their slots once, outside the timed calls.
func (t *tracer) slot(parent int, name, layer string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	k := slot{name: name, layer: layer, parent: parent}
	if id, ok := t.index[k]; ok {
		return id
	}
	if len(t.slots) == maxSlots {
		panic("benchmark: tracer slot table full")
	}
	t.slots = append(t.slots, k)
	t.index[k] = len(t.slots) - 1
	return len(t.slots) - 1
}

// add folds one call of duration d that started at start into slot id.
func (t *tracer) add(id int, start time.Time, d time.Duration) { t.addN(id, start, d, 1) }

// addN folds a call that stands for n like it: a wrapper on a hot boundary
// times one call in n and bills it n times.
func (t *tracer) addN(id int, start time.Time, d time.Duration, n int64) {
	if d -= t.clock; d < 0 {
		d = 0
	}
	a := &t.acc[id]
	a.busy.Add(int64(d) * n)
	a.count.Add(n)
	s := int64(start.Sub(t.t0))
	if a.first.Load() == 0 {
		a.first.CompareAndSwap(0, s)
	}
	for e := s + int64(d); ; {
		old := a.last.Load()
		if e <= old || a.last.CompareAndSwap(old, e) {
			break
		}
	}
}

// discard drops what the wrappers accumulated outside a measured op (the
// warm-up pass).
func (t *tracer) discard() {
	for id := range t.acc {
		a := &t.acc[id]
		a.busy.Store(0)
		a.count.Store(0)
		a.first.Store(0)
		a.last.Store(0)
	}
}

// endOp closes op number op, which ran for d from start: the accumulated
// slots become spans and feed the totals.
func (t *tracer) endOp(op int, start time.Time, d time.Duration) {
	t.add(rootSlot, start, d)
	t.ops++
	t.opNS += int64(d)
	t.mu.Lock()
	n := len(t.slots)
	t.mu.Unlock()
	var where [maxSlots]int // slot id -> span index in this op, -1 if idle
	for id := 0; id < n; id++ {
		a := &t.acc[id]
		c := a.count.Swap(0)
		b := a.busy.Swap(0)
		first, last := a.first.Swap(0), a.last.Swap(0)
		where[id] = -1
		if c == 0 {
			continue
		}
		t.busy[id] += b
		t.count[id] += c
		if len(t.spans) == cap(t.spans) {
			t.dropped++
			continue
		}
		parent := -1
		if p := t.slots[id].parent; p >= 0 {
			parent = where[p]
		}
		where[id] = len(t.spans)
		t.spans = append(t.spans, span{
			Name: t.slots[id].name, Layer: t.slots[id].layer,
			Start: first, End: last, Busy: b, Count: c, Parent: parent, Op: op,
		})
	}
}

// budgetRow is one line of the layer budget table.
type budgetRow struct {
	layer string
	us    float64 // self time per op, microseconds
}

// budget is a workload's layer budget: per-layer self time per op, the part
// of the op no wrapper saw, and — when workers overlap — the busy time that
// parallelism hid. Layer rows plus unattributed minus overlap equal opUS.
type budget struct {
	opUS         float64
	rows         []budgetRow // sorted by layer name
	unattributed float64
	overlap      float64
}

func (t *tracer) budget() budget {
	var b budget
	if t.ops == 0 {
		return b
	}
	per := func(ns int64) float64 { return float64(ns) / 1e3 / float64(t.ops) }
	b.opUS = per(t.opNS)
	self := make([]int64, len(t.slots))
	for id := range t.slots {
		self[id] += t.busy[id]
		if p := t.slots[id].parent; p >= 0 {
			self[p] -= t.busy[id]
		}
	}
	byLayer := map[string]float64{}
	var attributed float64
	for id := range t.slots {
		if id == rootSlot {
			continue
		}
		// A slot whose children ran on several workers at once can have
		// less busy time than they have together; its own share is then
		// not observable and counts as zero.
		if self[id] < 0 {
			self[id] = 0
		}
		byLayer[t.slots[id].layer] += per(self[id])
		attributed += per(self[id])
	}
	// The op's own remainder belongs to the layer the op is a call into
	// (sched.Run, fleet.Run); ops that are benchmark glue leave it
	// unattributed.
	rest := b.opUS - attributed
	switch {
	case rest < 0:
		b.overlap = -rest
	case t.slots[rootSlot].layer != "":
		byLayer[t.slots[rootSlot].layer] += rest
	default:
		b.unattributed = rest
	}
	for l, us := range byLayer {
		b.rows = append(b.rows, budgetRow{l, us})
	}
	sort.Slice(b.rows, func(i, j int) bool { return b.rows[i].layer < b.rows[j].layer })
	return b
}

func (b budget) layerUS(layer string) float64 {
	for _, r := range b.rows {
		if r.layer == layer {
			return r.us
		}
	}
	return 0
}

// print writes the budget table.
func (b budget) print(w io.Writer, workload string) {
	fmt.Fprintf(w, "layer budget: %s (self time per op)\n", workload)
	line := func(name string, us float64) {
		fmt.Fprintf(w, "  %-14s %12.1f us %6.1f%%\n", name, us, 100*us/b.opUS)
	}
	for _, r := range b.rows {
		line(r.layer, r.us)
	}
	line("unattributed", b.unattributed)
	if b.overlap > 0 {
		line("overlap", -b.overlap)
	}
	line("op", b.opUS)
}

// writeFile dumps the spans as JSON.
func (t *tracer) writeFile(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string `json:"workload"`
		Ops      int    `json:"ops"`
		Dropped  int    `json:"dropped_spans"`
		Spans    []span `json:"spans"`
	}{workload, t.ops, t.dropped, t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
