package switchsim

import (
	"sync"

	"tango/internal/telemetry"
)

// detector.go is the switch-side countermeasure to the flow-table overflow
// inference attack (arXiv 1504.03095). The attack's footprint is structural,
// not volumetric: a long run of never-before-seen flows with *adjacent*
// addresses arriving at a steady rate, interleaved with revisits to old
// flows that have just fallen out of the fast path. The detector samples the
// data plane in fixed-size windows and raises an alarm when a window is
// dominated by novel flows AND those novel flows arrive in address order —
// organic traffic (Zipf-popular flows over a randomly assigned address
// space) is novelty-heavy only briefly and essentially never sequential.

// The detector's thresholds. A window is detWindow data-plane observations;
// it alarms when at least detNovelFrac of them are first-seen flows and at
// least detSeqFrac of those novel flows' destinations directly follow the
// previous novel flow's. Sequential novelty is the scan signature.
const (
	detWindow    = 128
	detNovelFrac = 0.5
	detSeqFrac   = 0.5
)

// OverflowDetector watches one switch's data plane for the overflow-probing
// pattern. Attach it with WithDetector; read the verdict with Alarms. The
// detector has its own lock so tests can read counters while a scenario is
// still driving the switch.
type OverflowDetector struct {
	mu sync.Mutex

	// seen maps flow keys to state bits (bit 0: observed before;
	// bit 1: last observation ran on a fast tier).
	seen        map[uint64]uint8
	lastNovel   uint32 // destination of the most recent novel flow
	haveNovel   bool
	obs         int // observations in the current window
	novel       int
	seqNovel    int
	windows     int
	alarms      int
	revisitDemo int // previously-fast flows re-observed slow (diagnostic)

	alarmCtr   *telemetry.Counter
	windowCtr  *telemetry.Counter
	revisitCtr *telemetry.Counter
}

const (
	detSeen    uint8 = 1 << 0
	detWasFast uint8 = 1 << 1
)

// NewOverflowDetector builds a detector.
func NewOverflowDetector() *OverflowDetector {
	return &OverflowDetector{seen: make(map[uint64]uint8)}
}

// WithDetector attaches d to the switch: every data-plane send (a burst
// counts once — its pipeline decision is single) is observed. The detector's
// counters become labeled children of the switchsim.overflow_detector.*
// families under the switch's profile name.
func WithDetector(d *OverflowDetector) Option {
	return func(s *Switch) {
		s.detector = d
		if d == nil {
			return
		}
		reg := telemetry.Default()
		name := s.profile.Name
		d.mu.Lock()
		d.alarmCtr = reg.CounterVec("switchsim.overflow_detector.alarms", "switch").With(name)
		d.windowCtr = reg.CounterVec("switchsim.overflow_detector.windows", "switch").With(name)
		d.revisitCtr = reg.CounterVec("switchsim.overflow_detector.revisit_demotions", "switch").With(name)
		d.mu.Unlock()
	}
}

// observe records one data-plane classification. key identifies the flow
// (FrameKey), ok is false for non-IPv4 frames (counted but never novel-
// sequential), and path is the pipeline's tier decision.
func (d *OverflowDetector) observe(key uint64, ok bool, path PathKind) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.obs++
	fast := path == PathFast || path == PathMid
	if ok {
		bits, before := d.seen[key]
		if !before {
			d.novel++
			dst := uint32(key)
			if d.haveNovel && dst == d.lastNovel+1 {
				d.seqNovel++
			}
			d.lastNovel, d.haveNovel = dst, true
		} else if bits&detWasFast != 0 && !fast {
			// A flow that used to ride the fast path got demoted between
			// visits: each overflow-probe canary check produces exactly one
			// of these. Organic cache churn produces them too, so this is a
			// diagnostic signal, not an alarm trigger.
			d.revisitDemo++
			if d.revisitCtr != nil {
				d.revisitCtr.Add(1)
			}
		}
		bits |= detSeen
		if fast {
			bits |= detWasFast
		} else {
			bits &^= detWasFast
		}
		d.seen[key] = bits
	}
	if d.obs >= detWindow {
		d.closeWindow()
	}
}

// closeWindow evaluates the finished window. Callers hold d.mu.
func (d *OverflowDetector) closeWindow() {
	d.windows++
	if d.windowCtr != nil {
		d.windowCtr.Add(1)
	}
	novelOK := float64(d.novel) >= detNovelFrac*float64(d.obs)
	seqOK := d.novel > 0 && float64(d.seqNovel) >= detSeqFrac*float64(d.novel)
	if novelOK && seqOK {
		d.alarms++
		if d.alarmCtr != nil {
			d.alarmCtr.Add(1)
		}
	}
	d.obs, d.novel, d.seqNovel = 0, 0, 0
}

// Alarms returns how many windows matched the overflow-probing signature.
func (d *OverflowDetector) Alarms() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.alarms
}

// Windows returns how many complete windows have been evaluated.
func (d *OverflowDetector) Windows() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.windows
}

// RevisitDemotions returns how many previously-fast flows were re-observed
// on a slow tier — the canary-check footprint.
func (d *OverflowDetector) RevisitDemotions() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.revisitDemo
}

// observeFrame is the switch-side hook: derive the flow key and forward.
// Callers hold s.mu; the detector takes its own lock, keeping the hot path
// free of detector costs when none is attached.
func (s *Switch) observeFrame(key uint64, ok bool, path PathKind) {
	if s.detector != nil {
		s.detector.observe(key, ok, path)
	}
}
