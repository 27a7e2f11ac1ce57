package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// A workload is one closed-loop load shape: the next op starts when the
// previous one returns. The harness owns set-up timing, the warm-up pass,
// the measured window and the statistics; a workload owns its inputs, its
// ops and its correctness checks.
type workload interface {
	// setup builds every input from seed and leaves the system ready for op
	// 0. Its wall time is setup_s. tr is nil on untraced runs; with a
	// tracer, setup installs the benchmark's wrappers around the layer
	// boundaries it can reach.
	setup(seed int64, m *meter, tr *tracer) error
	// cycle is the number of ops in one pass over the workload's catalog.
	// The window ends on a cycle boundary, so every window measures the
	// same mix of ops.
	cycle() int
	// op runs op number i. It brackets the timed part with meter.start and
	// meter.stop — input generation and result checking stay outside — and
	// returns the work it completed, in the workload's own unit, or the
	// reason the op (or its correctness check) failed.
	op(i int) (work float64, err error)
	// finish runs the end-of-run checks and releases everything setup
	// acquired. It may be called after a failed setup.
	finish() []error
}

// workloadDef is one entry of the catalog.
type workloadDef struct {
	name string
	// unit names what work_per_s counts.
	unit string
	// rootLayer is the layer an op is a direct call into; the op's own
	// remainder is billed to it in the layer budget. Empty when the op is
	// benchmark glue around several layers.
	rootLayer string
	new       func() workload
}

var catalog = []workloadDef{
	{"infer_sim", "switches inferred", "", func() workload { return &inferSim{} }},
	{"channel_tcp", "channel ops (flow-mods confirmed + probes answered)", "", func() workload { return &channelTCP{} }},
	{"sched_plan", "requests drained", "sched", func() workload { return &schedPlan{} }},
	{"update_b4", "requests drained", "sched", func() workload { return &updateB4{} }},
	{"dataplane_churn", "packets forwarded", "switchsim", func() workload { return &dataplaneChurn{} }},
	{"fleet_mixed", "switch inferences", "fleet", func() workload { return &fleetMixed{} }},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, d := range catalog {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

// genWorkers is the generator-side concurrency cap of the load shape.
func genWorkers() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// meter brackets the timed part of an op: its wall time and the process CPU
// time over exactly that part, per op. In exact mode it also brackets the
// part with runtime.ReadMemStats, which flushes every allocation cache and
// so counts heap bytes and objects exactly — at the price of a
// stop-the-world on each side, which is why the timed window runs without
// it and a short allocation pass afterwards runs with it.
type meter struct {
	exact bool

	t0   time.Time
	cpu0 time.Duration
	mem0 runtime.MemStats
	mem1 runtime.MemStats

	lastStart time.Time
	lastDur   time.Duration

	// Per-op samples of the current window, preallocated.
	durs, cpus, works []float64
	cycleEnd          []int // index one past each completed cycle's last op

	bytes, objs uint64 // exact mode: heap allocation over the timed parts
}

// maxOps bounds the preallocated sample buffers; a window that would exceed
// it (an op under 40 us) stops early instead of growing them.
const maxOps = 1 << 18

func newMeter() *meter {
	return &meter{
		durs: make([]float64, 0, maxOps), cpus: make([]float64, 0, maxOps),
		works: make([]float64, 0, maxOps), cycleEnd: make([]int, 0, maxOps),
	}
}

// processCPU is the CPU time this process has consumed (all threads), read
// from CLOCK_PROCESS_CPUTIME_ID: getrusage only has tick resolution.
func processCPU() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

func (m *meter) start() {
	if m.exact {
		runtime.ReadMemStats(&m.mem0)
	}
	m.cpu0 = processCPU()
	m.t0 = time.Now()
}

func (m *meter) stop() time.Duration {
	d := time.Since(m.t0)
	cpu := processCPU() - m.cpu0
	if m.exact {
		runtime.ReadMemStats(&m.mem1)
		m.bytes += m.mem1.TotalAlloc - m.mem0.TotalAlloc
		m.objs += m.mem1.Mallocs - m.mem0.Mallocs
	}
	m.lastStart, m.lastDur = m.t0, d
	if len(m.durs) < cap(m.durs) {
		m.durs = append(m.durs, d.Seconds())
		m.cpus = append(m.cpus, cpu.Seconds())
	}
	return d
}

// record files the work of the op just stopped.
func (m *meter) record(work float64, endOfCycle bool) {
	m.works = append(m.works, work)
	if endOfCycle {
		m.cycleEnd = append(m.cycleEnd, len(m.works))
	}
}

// reset clears the samples, keeping the buffers.
func (m *meter) reset() {
	m.durs, m.cpus, m.works, m.cycleEnd = m.durs[:0], m.cpus[:0], m.works[:0], m.cycleEnd[:0]
	m.bytes, m.objs = 0, 0
}

// window is what one measured window produced. Its times are as the clock
// read them; runEndToEnd scales them by the host reference.
type window struct {
	attempted, failed int
	failures          []string // first few failure messages
	ops, cycles       int      // measured in the window
	cycleS            float64  // median cycle, seconds
	workPerS          float64  // work of one cycle over the median cycle
	p50, p95          float64  // per op, milliseconds
	p95Err            error
	cpuMSPerOp        float64
	allocKBPerOp      float64
	allocsPerOp       float64
	gcPauseMS         float64
}

const (
	keepFailures = 5
	// The allocation pass runs whole cycles until it has allocOps ops or
	// has taken allocShare of the window's length (allocCap seconds at most).
	allocOps   = 32
	allocShare = 0.1
	allocCap   = 1.5
)

// lane is one workload instance under measurement. An end-to-end run has
// one; a traced run has two — the same workload untraced and traced — and
// alternates whole cycles between them, so that host drift, which is of the
// order of the tracing overhead, falls on both alike.
type lane struct {
	w   workload
	m   *meter
	tr  *tracer
	win window
	i   int // next op
}

func (l *lane) note(err error) {
	l.win.attempted++
	if err != nil {
		l.win.failed++
		if len(l.win.failures) < keepFailures {
			l.win.failures = append(l.win.failures, fmt.Sprintf("op %d: %v", l.i, err))
		}
	}
}

// pass runs one full cycle; timed passes are filed with the meter and the
// tracer.
func (l *lane) pass(timed bool) {
	n := l.w.cycle()
	for k := 0; k < n; k++ {
		work, err := l.w.op(l.i)
		l.note(err)
		if timed {
			l.m.record(work, k == n-1)
			if l.tr != nil {
				l.tr.endOp(l.i, l.m.lastStart, l.m.lastDur)
			}
		}
		l.i++
	}
}

// measure runs, on every lane, the warm-up pass and then cycles in turn for
// at least `seconds`, and on the first lane the allocation pass. With a host
// reference, reference ops run between the cycles.
func measure(seconds float64, ref *hostRef, lanes ...*lane) {
	// Warm-up: one full pass, so arenas, frame slabs and memo tables reach
	// steady state. Failures count; timings do not.
	for _, l := range lanes {
		l.pass(false)
		l.m.reset()
		if l.tr != nil {
			l.tr.discard()
		}
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for begin := time.Now(); time.Since(begin).Seconds() < seconds && len(lanes[0].m.durs)+lanes[0].w.cycle() <= maxOps; {
		if ref != nil {
			ref.sampleDue()
		}
		for _, l := range lanes {
			l.pass(true)
		}
	}
	runtime.ReadMemStats(&ms1)
	for _, l := range lanes {
		l.win.summarise(l.m)
		l.win.gcPauseMS = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	}

	// Allocation pass: whole cycles under exact accounting.
	l := lanes[0]
	l.m.reset()
	l.m.exact = true
	for begin := time.Now(); len(l.m.durs) < allocOps && time.Since(begin).Seconds() < math.Min(allocShare*seconds, allocCap); {
		l.pass(false)
	}
	l.m.exact = false
	l.win.allocKBPerOp = float64(l.m.bytes) / 1024 / float64(len(l.m.durs))
	l.win.allocsPerOp = float64(l.m.objs) / float64(len(l.m.durs))
}

// summarise turns the meter's samples into the window's time metrics.
func (win *window) summarise(m *meter) {
	win.ops, win.cycles = len(m.durs), len(m.cycleEnd)
	opMS := make([]float64, len(m.durs))
	var cpu float64
	for k, d := range m.durs {
		opMS[k] = d * 1e3
		cpu += m.cpus[k]
	}
	cycleS := make([]float64, 0, len(m.cycleEnd))
	var cycleWork float64 // the same on every cycle
	lo := 0
	for _, hi := range m.cycleEnd {
		var dur, work float64
		for k := lo; k < hi; k++ {
			dur += m.durs[k]
			work += m.works[k]
		}
		cycleS = append(cycleS, dur)
		cycleWork = work
		lo = hi
	}
	win.p50 = median(opMS)
	win.p95, _, win.p95Err = percentile(opMS, 95)
	win.cycleS = median(cycleS)
	win.workPerS = medianRate(cycleWork, cycleS)
	win.cpuMSPerOp = cpu * 1e3 / float64(len(opMS))
}

// Set-up is repeated so that setup_s is a median, not one sample: half of
// the repeats before the window and half after it, so that a slow half-minute
// on the host does not fall on all of them. A side takes at least one repeat
// and up to maxSetups/2 while its repeats have cost less than half the
// budget.
const (
	maxSetups   = 24
	setupShare  = 0.12
	setupBudget = 3.0 // seconds, at most
)

// setUp sets a fresh instance of the workload up under the clock, after a
// reference op if the run keeps a host reference.
func setUp(def workloadDef, seed int64, m *meter, tr *tracer, ref *hostRef) (workload, float64, error) {
	w := def.new()
	runtime.GC()
	if ref != nil {
		ref.sample()
	}
	t0 := time.Now()
	err := w.setup(seed, m, tr)
	d := time.Since(t0).Seconds()
	if err != nil {
		w.finish()
		return nil, 0, fmt.Errorf("%s: set-up: %w", def.name, err)
	}
	return w, d, nil
}

// repeatSetups sets instances up and tears them down again for about budget
// seconds and returns the set-up times.
func repeatSetups(def workloadDef, seed int64, budget float64, ref *hostRef) ([]float64, error) {
	m := newMeter()
	var times []float64
	for total := 0.0; len(times) == 0 || len(times) < maxSetups/2 && total < budget; {
		w, d, err := setUp(def, seed, m, nil, ref)
		if err != nil {
			return nil, err
		}
		if errs := w.finish(); len(errs) > 0 {
			return nil, fmt.Errorf("%s: tear-down after set-up: %w", def.name, errs[0])
		}
		times = append(times, d)
		total += d
	}
	return times, nil
}

// newLane sets the instance up that a window runs on.
func newLane(def workloadDef, seed int64, tr *tracer, ref *hostRef) (*lane, float64, error) {
	m := newMeter()
	w, d, err := setUp(def, seed, m, tr, ref)
	if err != nil {
		return nil, 0, err
	}
	return &lane{w: w, m: m, tr: tr}, d, nil
}

// finite reports whether every metric value is a usable number.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
