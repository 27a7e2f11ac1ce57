package switchsim

import (
	"time"

	"tango/internal/openflow"
	"tango/internal/telemetry"
)

// switchTelemetry holds the emulator's metric handles. Counters aggregate
// across every switch in the process (the fleet view); occupancy gauges are
// per switch instance, named after the profile. All handles are nil-safe,
// so an uninstrumented switch pays one nil check per record site.
type switchTelemetry struct {
	tracer *telemetry.Tracer
	name   string

	flowMods    *telemetry.Counter
	packets     *telemetry.Counter
	fastHits    *telemetry.Counter
	midHits     *telemetry.Counter
	slowHits    *telemetry.Counter
	controlMiss *telemetry.Counter
	evictions   *telemetry.Counter
	promotions  *telemetry.Counter
	expirations *telemetry.Counter
	resets      *telemetry.Counter
	idxPushes   *telemetry.Counter
	idxRemoves  *telemetry.Counter
	idxFixups   *telemetry.Counter

	tcamOcc   *telemetry.Gauge
	softOcc   *telemetry.Gauge
	kernelOcc *telemetry.Gauge

	hFlowMod  *telemetry.Histogram
	hIdxDepth *telemetry.Histogram
}

func (t *switchTelemetry) init(reg *telemetry.Registry, tr *telemetry.Tracer, name string) {
	t.tracer = tr
	t.name = name
	t.flowMods = reg.Counter("switchsim.flowmods")
	t.packets = reg.Counter("switchsim.packets")
	t.fastHits = reg.Counter("switchsim.fast_hits")
	t.midHits = reg.Counter("switchsim.mid_hits")
	t.slowHits = reg.Counter("switchsim.slow_hits")
	t.controlMiss = reg.Counter("switchsim.control_miss")
	t.evictions = reg.Counter("switchsim.evictions")
	t.promotions = reg.Counter("switchsim.promotions")
	t.expirations = reg.Counter("switchsim.expirations")
	t.resets = reg.Counter("switchsim.resets")
	t.idxPushes = reg.Counter("switchsim.evict_index.pushes")
	t.idxRemoves = reg.Counter("switchsim.evict_index.removes")
	t.idxFixups = reg.Counter("switchsim.evict_index.fixups")
	// Occupancy is per switch instance: labeled children of one gauge family
	// per table, so exporters can slice the fleet by switch name instead of
	// parsing name-mangled metric keys.
	t.tcamOcc = reg.GaugeVec("switchsim.tcam_occupancy", "switch").With(name)
	t.softOcc = reg.GaugeVec("switchsim.software_occupancy", "switch").With(name)
	t.kernelOcc = reg.GaugeVec("switchsim.kernel_occupancy", "switch").With(name)
	t.hFlowMod = reg.Histogram("switchsim.flowmod_ns")
	t.hIdxDepth = reg.Histogram("switchsim.evict_index.depth",
		1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096)
}

// enabled reports whether any per-operation work (spans, occupancy sets)
// is worth doing.
func (t *switchTelemetry) enabled() bool {
	return t.hFlowMod != nil || t.tracer != nil
}

// noteFlowModDone records the flow-mod's virtual latency (histogram +
// switch.flowmod span) and refreshes the occupancy gauges. Callers hold
// s.mu. start is the virtual instant the flow-mod began.
func (s *Switch) noteFlowModDone(start time.Time, fm *openflow.FlowMod, err error) {
	if !s.tel.enabled() {
		return
	}
	dur := s.clock.Now().Sub(start)
	s.tel.hFlowMod.Observe(float64(dur))
	if s.tel.tracer != nil {
		args := map[string]any{"command": fm.Command.String(), "priority": fm.Priority}
		if err != nil {
			args["error"] = err.Error()
		}
		s.tel.tracer.Record("switch.flowmod", s.tel.name, start, dur, args)
	}
	s.updateOccupancy()
}

// updateOccupancy refreshes the per-table occupancy gauges. Callers hold
// s.mu.
func (s *Switch) updateOccupancy() {
	if s.tel.tcamOcc == nil {
		return
	}
	if s.tcam != nil {
		s.tel.tcamOcc.Set(int64(s.tcam.Len()))
	}
	if s.software != nil {
		s.tel.softOcc.Set(int64(s.software.Len()))
	}
	if s.kernel != nil {
		s.tel.kernelOcc.Set(int64(len(s.kernel)))
	}
}
