package telemetry

import (
	"sync"
	"time"
)

// DefaultSpanLimit caps how many events a tracer retains before it starts
// dropping (counting the drops, which WriteTrace reports). Large scheduler
// runs can emit one span per flow-mod; the cap bounds memory without failing
// the run.
const DefaultSpanLimit = 1 << 16

// SpanEvent is one recorded span or instant event, stamped on both clocks:
// Virt/VirtDur place it on the simulated timeline (the one trace viewers
// render), Wall records when it really happened.
type SpanEvent struct {
	// Name is the event name, e.g. "sched.batch".
	Name string
	// Track groups events into trace-viewer threads ("" is the main track);
	// scheduler batches use the switch name so each switch gets a lane.
	Track string
	// Phase is 'X' for complete spans, 'i' for instant events.
	Phase byte
	// Virt is the virtual start instant, VirtDur the virtual duration.
	Virt    time.Time
	VirtDur time.Duration
	// Wall is the wall-clock instant the event was recorded.
	Wall time.Time
	// Args carries event metadata into the trace viewer.
	Args map[string]any
}

// Tracer collects span events. All methods are safe for concurrent use, and
// a nil *Tracer is a no-op, so tracing instrumentation can be left in place
// unconditionally.
type Tracer struct {
	virtNow func() time.Time

	mu      sync.Mutex
	limit   int
	events  []SpanEvent
	dropped int64
}

// NewTracer returns a tracer. virtNow supplies the virtual clock for Instant
// events; nil means they are stamped with wall time on both clocks
// (appropriate for purely wall-clock processes such as the TCP daemon).
// Events recorded through Record carry their own virtual timestamps and
// ignore virtNow.
func NewTracer(virtNow func() time.Time) *Tracer {
	return &Tracer{virtNow: virtNow, limit: DefaultSpanLimit}
}

func (t *Tracer) now() (virt, wall time.Time) {
	wall = time.Now()
	if t.virtNow != nil {
		return t.virtNow(), wall
	}
	return wall, wall
}

func (t *Tracer) append(ev SpanEvent) {
	t.mu.Lock()
	if len(t.events) >= t.limit {
		t.dropped++
	} else {
		t.events = append(t.events, ev)
	}
	t.mu.Unlock()
}

// Record adds a complete span with an explicit virtual start and duration —
// the form used by components that own their own clock (the switch emulator,
// the scheduler's composed makespan timeline). args may be nil; the map is
// retained, so callers must not reuse it.
func (t *Tracer) Record(name, track string, virtStart time.Time, virtDur time.Duration, args map[string]any) {
	if t == nil {
		return
	}
	t.append(SpanEvent{
		Name: name, Track: track, Phase: 'X',
		Virt: virtStart, VirtDur: virtDur, Wall: time.Now(), Args: args,
	})
}

// Instant adds a zero-duration event at the current time.
func (t *Tracer) Instant(name, track string, args map[string]any) {
	if t == nil {
		return
	}
	virt, wall := t.now()
	t.append(SpanEvent{Name: name, Track: track, Phase: 'i', Virt: virt, Wall: wall, Args: args})
}

// Events returns a copy of the retained events.
func (t *Tracer) Events() []SpanEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]SpanEvent(nil), t.events...)
}
