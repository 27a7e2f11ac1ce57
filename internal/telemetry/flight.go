package telemetry

// flight.go is the per-switch RTT flight recorder, the raw-sample companion
// to the aggregated probe.rtt_ns histograms: quantiles tell you a
// distribution moved, the flight recorder tells you when, on which flow, and
// whether the probe punted — the stream the change-point drift detector and
// the fingerprinting analyses (arXiv 1611.02370) consume. Bounded like an
// aircraft recorder: old samples fall off, memory never grows past tracks ×
// capacity.

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultFlightCapacity is the per-track sample ring size.
const DefaultFlightCapacity = 4096

// FlightSample is one recorded probe round trip.
type FlightSample struct {
	// Switch is the track label (switch/profile name). Filled on export;
	// tracks do not store it per sample.
	Switch string `json:"switch,omitempty"`
	// Seq numbers samples per track from 1, so exports reveal how many
	// samples the ring has already dropped.
	Seq uint64 `json:"seq"`
	// Virt is the instant on the device's measurement clock (virtual for
	// emulated switches, wall for TCP); Wall is when it was recorded.
	Virt time.Time `json:"virt"`
	Wall time.Time `json:"wall"`
	// RTT is the measured round trip.
	RTT time.Duration `json:"rtt_ns"`
	// FlowID is the probe flow that produced the sample.
	FlowID uint32 `json:"flow_id"`
	// Punted reports whether the frame went to the controller (NO_MATCH)
	// instead of being forwarded.
	Punted bool `json:"punted"`
}

// FlightTrack is one switch's bounded sample ring. Record is mutex-guarded
// but allocation-free; a nil *FlightTrack is a no-op.
type FlightTrack struct {
	mu   sync.Mutex
	ring ring[FlightSample]
	seq  uint64
}

// Record appends one sample, overwriting the oldest once the ring is full.
func (t *FlightTrack) Record(virt, wall time.Time, rtt time.Duration, flowID uint32, punted bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.seq++
	t.ring.push(FlightSample{
		Seq: t.seq, Virt: virt, Wall: wall, RTT: rtt, FlowID: flowID, Punted: punted,
	})
	t.mu.Unlock()
}

// Samples returns a copy of the retained samples, oldest first (nil track:
// nil).
func (t *FlightTrack) Samples() []FlightSample {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.ordered()
}

// FlightRecorder owns one FlightTrack per switch, in the copy-on-write table
// the vecs use, so the Track hit path is one atomic load. A nil
// *FlightRecorder hands out nil tracks, keeping the disabled configuration
// free.
type FlightRecorder struct{ tracks *cowTable[FlightTrack] }

// NewFlightRecorder returns a recorder whose tracks hold capacity samples
// each (0 selects DefaultFlightCapacity).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightCapacity
	}
	return &FlightRecorder{newCowTable(func(string) *FlightTrack {
		return &FlightTrack{ring: newRing[FlightSample](capacity)}
	})}
}

// Track returns (creating if needed) the named switch's track.
func (fr *FlightRecorder) Track(name string) *FlightTrack {
	if fr == nil {
		return nil
	}
	return fr.tracks.get(name)
}

// WriteJSONL writes every track's retained samples as JSON Lines — one
// sample object per line, tracks in sorted name order, each track oldest
// first. The schema is FlightSample's JSON form with the track name in
// "switch". A nil recorder writes nothing and returns nil.
func (fr *FlightRecorder) WriteJSONL(w io.Writer) error {
	if fr == nil {
		return nil
	}
	tracks := fr.tracks.snapshot()
	enc := json.NewEncoder(w)
	for _, name := range metricNames(tracks) {
		for _, s := range tracks[name].Samples() {
			s.Switch = name
			if err := enc.Encode(s); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteFile writes the JSONL export to path.
func (fr *FlightRecorder) WriteFile(path string) error {
	return writeFile(path, "flight export", fr.WriteJSONL)
}

// Process-wide default flight recorder, following the registry/tracer
// pattern: nil until a command installs one, so the default configuration
// records nothing.
var defaultFlight atomic.Pointer[FlightRecorder]

// SetDefaultFlight installs the process-wide default flight recorder (may
// be nil). Like SetDefault it must run before instrumented objects are
// constructed.
func SetDefaultFlight(fr *FlightRecorder) { defaultFlight.Store(fr) }

// DefaultFlight returns the process-wide default flight recorder (nil when
// unset).
func DefaultFlight() *FlightRecorder { return defaultFlight.Load() }
