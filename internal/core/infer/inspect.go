package infer

import (
	"fmt"
	"time"

	"tango/internal/core/pattern"
	"tango/internal/core/probe"
	"tango/internal/packet"
)

// Phases is a mask over the pipeline's optional phases. Size probing has no
// bit: every later phase is sized from its result, so it always runs.
type Phases uint8

const (
	PhaseMicroflow Phases = 1 << iota
	PhasePolicy
	PhaseCosts
)

// InspectOptions tunes Inspect. The zero value runs every phase on defaults.
type InspectOptions struct {
	// Name labels the model and its score card.
	Name string
	// Size and Cost are passed to ProbeSizes and MeasureCosts.
	Size SizeOptions
	Cost CostOptions
	// Skip names the optional phases not to run.
	Skip Phases
}

// Model is the complete inferred fingerprint of one switch — what Tango
// knows after probing it.
type Model struct {
	// Name labels the switch.
	Name string
	// Sizes is the flow-table layer inference (Algorithm 1).
	Sizes *SizeResult
	// Microflow reports traffic-driven exact-match caching (OVS style).
	Microflow bool
	// Policy is the cache-policy inference (Algorithm 2); nil when there is no
	// cache to probe: one layer, microflow caching, or a tier that is the table.
	Policy *PolicyResult
	// Costs is the fitted control-channel score card.
	Costs *pattern.ScoreCard
}

// String renders the model compactly.
func (m *Model) String() string {
	s := fmt.Sprintf("switch %s: %s", m.Name, m.Sizes.String())
	if m.Microflow {
		s += " caching=microflow"
	} else if m.Policy != nil {
		s += " policy=" + m.Policy.Policy.String()
	}
	if m.Costs != nil {
		s += fmt.Sprintf(" costs{add=%v addNew=%v shift=%v mod=%v del=%v}",
			m.Costs.AddSamePriority.Round(time.Microsecond),
			m.Costs.AddNewPriority.Round(time.Microsecond),
			m.Costs.ShiftPerEntry.Round(time.Nanosecond),
			m.Costs.Mod.Round(time.Microsecond),
			m.Costs.Del.Round(time.Microsecond))
	}
	return s
}

// PhaseError is how Inspect fails: the phase that stopped the pipeline
// ("size", "microflow", "policy" or "cost") and the cause.
type PhaseError struct {
	Phase string
	Err   error
}

func (e *PhaseError) Error() string { return e.Phase + " stage: " + e.Err.Error() }
func (e *PhaseError) Unwrap() error { return e.Err }

// Inspect is the one place the inference chain is written (DESIGN §14):
// ProbeSizes, whose rules it then removes (later phases remove their own);
// DetectMicroflowCaching; ProbePolicy on a cache of Levels[0].Census entries,
// seed + 1, when there is a cache to probe (cacheInFront); MeasureCosts with
// no more samples than the table was seen to hold, the layers' mean RTTs as
// the card's PathLatency. Code that runs one algorithm alone calls that
// algorithm. The device should otherwise be idle and its tables empty at
// entry. A failure is a *PhaseError and no model.
func Inspect(e *probe.Engine, opts InspectOptions) (*Model, error) {
	size := opts.Size.withDefaults()
	m := &Model{Name: opts.Name}
	var err error
	if m.Sizes, err = ProbeSizes(e, size); err != nil {
		return nil, &PhaseError{Phase: "size", Err: err}
	}
	e.ClearProbeRules(packet.SizeFlows.Base(), uint32(m.Sizes.RulesInstalled), size.Priority)

	if opts.Skip&PhaseMicroflow == 0 {
		if m.Microflow, _, err = DetectMicroflowCaching(e, packet.MicroflowFlows.Base(), size.Priority); err != nil {
			return nil, &PhaseError{Phase: "microflow", Err: err}
		}
	}
	if opts.Skip&PhasePolicy == 0 && !m.Microflow && cacheInFront(m.Sizes) {
		m.Policy, err = ProbePolicy(e, PolicyOptions{CacheSize: m.Sizes.Levels[0].Census, Seed: size.Seed + 1})
		if err != nil {
			return nil, &PhaseError{Phase: "policy", Err: err}
		}
	}
	if opts.Skip&PhaseCosts == 0 {
		cost := opts.Cost.withDefaults()
		if m.Sizes.CacheFull && cost.Samples > m.Sizes.RulesInstalled {
			cost.Samples = m.Sizes.RulesInstalled
		}
		if m.Costs, err = MeasureCosts(e, opts.Name, cost); err != nil {
			return nil, &PhaseError{Phase: "cost", Err: err}
		}
		m.Costs.PathLatency = make([]time.Duration, 0, len(m.Sizes.Levels))
		for _, l := range m.Sizes.Levels {
			m.Costs.PathLatency = append(m.Costs.PathLatency, l.MeanRTT)
		}
	}
	return m, nil
}

// cacheInFront reports whether the fastest tier is a cache in front of a
// larger table, the thing Algorithm 2 probes. The probe installs 2 × cache
// rules: when the switch said it was full at RulesInstalled and twice the
// tier does not fit in that, the tier is the table — the "tier" behind it a
// few probes a faulty channel delayed — and probing could only overflow it.
func cacheInFront(s *SizeResult) bool {
	return len(s.Levels) >= 2 && (!s.CacheFull || 2*s.Levels[0].Census <= s.RulesInstalled)
}
