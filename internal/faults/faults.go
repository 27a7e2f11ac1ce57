// Package faults provides deterministic, seeded fault injection for
// Tango's control channel. The paper's premise is that switch properties
// are inferred from measurements taken over a real, imperfect OpenFlow
// channel; this package supplies the imperfection on demand so that the
// probing and inference engines can be hardened — and regression-gated —
// against message loss, delay, duplication, reordering, spurious
// table-overflow errors, and mid-probe switch resets.
//
// Every fault decision is drawn from a single seeded RNG consumed in
// operation order, so a run with a given seed replays exactly: the
// conformance harness (internal/conformance) relies on this to assert that
// an entire probe→infer pipeline is bit-for-bit reproducible under faults.
// Injected faults are observable through telemetry as per-kind counters
// (faults.injected.<kind>).
//
// Two injection points cover the repo's two transports:
//
//   - Device (this package) wraps the in-process emulator's device
//     (probe.SimDevice) and perturbs its FlowMod and SendFrameN calls.
//   - ofconn.ServeOptions.Faults hands an *Injector to the TCP agent loop,
//     which drops, delays, duplicates, and reorders reply messages on the
//     wire; the controller side surfaces the resulting silence as typed
//     timeout errors (ofconn.ErrTimeout).
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"tango/internal/telemetry"
)

// Kind identifies one fault class.
type Kind int

// Fault kinds. The order is the precedence order used when one RNG draw is
// partitioned across the configured rates.
const (
	// KindDrop loses a control message: the operation is not applied (or
	// its acknowledgement is lost after it was applied — both directions
	// occur, chosen deterministically) and the caller observes a timeout.
	KindDrop Kind = iota
	// KindDelay holds a message for an extra latency draw before applying.
	KindDelay
	// KindDuplicate delivers a message twice. Idempotent operations
	// (modify, delete, probes) are applied twice; adds are absorbed by the
	// switch (OpenFlow 1.0 replaces on identical match+priority) and only
	// pay the extra channel time.
	KindDuplicate
	// KindReorder swaps a flow-mod with the operation that follows it.
	KindReorder
	// KindReset models a mid-probe switch reset: all flow tables are
	// cleared and the operation fails with a non-transient typed error.
	KindReset
	// KindOverflow injects a spurious table-full rejection: the operation
	// is not applied and the caller sees an error that wraps the real
	// table-full sentinel plus the transient fault marker.
	KindOverflow

	numKinds
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindDrop:
		return "drop"
	case KindDelay:
		return "delay"
	case KindDuplicate:
		return "duplicate"
	case KindReorder:
		return "reorder"
	case KindReset:
		return "reset"
	case KindOverflow:
		return "overflow"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Kinds lists every fault kind in precedence order.
var Kinds = []Kind{KindDrop, KindDelay, KindDuplicate, KindReorder, KindReset, KindOverflow}

// Error is the typed error surfaced for an injected fault that the
// underlying operation could not absorb silently.
type Error struct {
	// Kind is the fault class that fired.
	Kind Kind
	// Op names the operation the fault hit ("flowmod", "probe", "traffic").
	Op string
	// Wrapped is an optional underlying sentinel (e.g. the switch's
	// table-full error for KindOverflow) exposed via Unwrap.
	Wrapped error
}

// Error implements error.
func (e *Error) Error() string {
	if e.Wrapped != nil {
		return fmt.Sprintf("faults: injected %s on %s: %v", e.Kind, e.Op, e.Wrapped)
	}
	return fmt.Sprintf("faults: injected %s on %s", e.Kind, e.Op)
}

// Unwrap exposes the wrapped sentinel.
func (e *Error) Unwrap() error { return e.Wrapped }

// Timeout reports whether the fault manifests as a timeout, matching the
// net.Error convention.
func (e *Error) Timeout() bool { return e.Kind == KindDrop }

// Transient reports whether a bounded retry may clear the fault. Resets are
// not transient: the switch lost all probe state and the measurement round
// cannot be salvaged by re-sending one message.
func (e *Error) Transient() bool { return e.Kind != KindReset }

// Is lets errors.Is match any injected fault against ErrInjected.
func (e *Error) Is(target error) bool { return target == ErrInjected }

// ErrInjected is the sentinel every *Error matches via errors.Is, letting
// callers separate injected faults from organic failures.
var ErrInjected = errors.New("faults: injected fault")

// Config sets per-operation fault rates. Rates are probabilities in [0,1]
// applied per control-channel operation; their sum must not exceed 1 (one
// operation suffers at most one fault). The zero value disables injection.
type Config struct {
	// Seed fixes the decision RNG. Two injectors with equal Config produce
	// identical fault sequences.
	Seed int64

	// Per-kind rates.
	Drop      float64
	Delay     float64
	Duplicate float64
	Reorder   float64
	Reset     float64
	Overflow  float64

	// DelayMean/DelayStdDev shape the extra latency charged by KindDelay.
	// Zero means 2ms ± 0.5ms (simulated time on virtual-clock devices,
	// wall time on the TCP server loop).
	DelayMean   time.Duration
	DelayStdDev time.Duration
	// DropTimeout is the time a caller loses waiting on a dropped message
	// before its (simulated) timer fires. Zero means 25ms.
	DropTimeout time.Duration
}

// Default fault-shape parameters.
const (
	defaultDelayMean   = 2 * time.Millisecond
	defaultDelayStdDev = 500 * time.Microsecond
	defaultDropTimeout = 25 * time.Millisecond
)

// Enabled reports whether any fault rate is non-zero.
func (c Config) Enabled() bool {
	return c.Drop > 0 || c.Delay > 0 || c.Duplicate > 0 || c.Reorder > 0 ||
		c.Reset > 0 || c.Overflow > 0
}

// rate returns the configured probability for kind k.
func (c Config) rate(k Kind) float64 {
	switch k {
	case KindDrop:
		return c.Drop
	case KindDelay:
		return c.Delay
	case KindDuplicate:
		return c.Duplicate
	case KindReorder:
		return c.Reorder
	case KindReset:
		return c.Reset
	case KindOverflow:
		return c.Overflow
	}
	return 0
}

// Validate checks the rates are probabilities summing to at most 1.
func (c Config) Validate() error {
	var sum float64
	for _, k := range Kinds {
		r := c.rate(k)
		if r < 0 || r > 1 {
			return fmt.Errorf("faults: %s rate %v outside [0,1]", k, r)
		}
		sum += r
	}
	if sum > 1 {
		return fmt.Errorf("faults: rates sum to %v > 1", sum)
	}
	return nil
}

// String renders the config in the spec syntax ParseSpec accepts.
func (c Config) String() string {
	var parts []string
	for _, k := range Kinds {
		if r := c.rate(k); r > 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", k, r))
		}
	}
	if c.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", c.Seed))
	}
	if len(parts) == 0 {
		return "off"
	}
	return strings.Join(parts, ",")
}

// ParseSpec parses a command-line fault specification of the form
//
//	drop=0.01,delay=0.05,duplicate=0.01,reorder=0.02,overflow=0.01,seed=7
//
// Unknown keys and malformed rates are errors. The empty string (and the
// literal "off") yields a disabled Config.
func ParseSpec(spec string) (Config, error) {
	var c Config
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "off" {
		return c, nil
	}
	for _, field := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return c, fmt.Errorf("faults: bad spec field %q (want key=value)", field)
		}
		if key == "seed" {
			seed, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return c, fmt.Errorf("faults: bad seed %q: %v", val, err)
			}
			c.Seed = seed
			continue
		}
		rate, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return c, fmt.Errorf("faults: bad rate %q for %s: %v", val, key, err)
		}
		switch key {
		case "drop":
			c.Drop = rate
		case "delay":
			c.Delay = rate
		case "duplicate", "dup":
			c.Duplicate = rate
		case "reorder":
			c.Reorder = rate
		case "reset":
			c.Reset = rate
		case "overflow":
			c.Overflow = rate
		default:
			return c, fmt.Errorf("faults: unknown fault kind %q", key)
		}
	}
	if err := c.Validate(); err != nil {
		return c, err
	}
	return c, nil
}

// Injector draws deterministic fault decisions. All methods are safe for
// concurrent use, but determinism across runs additionally requires that
// callers consult the injector in a deterministic order — one injector per
// probed switch, as the conformance harness does. A nil *Injector never
// injects, so integration points can consult it unconditionally.
type Injector struct {
	mu  sync.Mutex
	cfg Config
	rng *rand.Rand

	counters [numKinds]*telemetry.Counter
	total    *telemetry.Counter
}

// NewInjector builds an injector from cfg, bound to the process-default
// telemetry registry. It returns nil — inject nothing, at no cost — when
// cfg has no fault enabled, so call sites need no special casing.
func NewInjector(cfg Config) *Injector {
	if !cfg.Enabled() {
		return nil
	}
	if cfg.DelayMean == 0 {
		cfg.DelayMean = defaultDelayMean
		cfg.DelayStdDev = defaultDelayStdDev
	}
	if cfg.DropTimeout == 0 {
		cfg.DropTimeout = defaultDropTimeout
	}
	in := &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	in.SetTelemetry(telemetry.Default())
	return in
}

// SetTelemetry rebinds the injector's counters. Nil disables recording.
func (in *Injector) SetTelemetry(reg *telemetry.Registry) {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, k := range Kinds {
		in.counters[k] = reg.Counter("faults.injected." + k.String())
	}
	in.total = reg.Counter("faults.injected.total")
}

// Decision is the outcome of one fault draw.
type Decision struct {
	// Fire reports whether any fault fires.
	Fire bool
	// Kind is the fault class when Fire is set.
	Kind Kind
	// Delay is the extra latency for KindDelay.
	Delay time.Duration
	// AckLoss distinguishes, for KindDrop, a message lost on its way to
	// the switch (false: the operation was never applied) from an
	// acknowledgement lost on its way back (true: the operation WAS
	// applied, the caller just cannot know).
	AckLoss bool
}

// Decide draws the fault decision for the next control-channel operation.
// Exactly one uniform sample partitions the rate budget, so at most one
// kind fires per operation and the decision stream is a pure function of
// the seed and call order.
func (in *Injector) Decide() Decision {
	if in == nil {
		return Decision{}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	u := in.rng.Float64()
	var cum float64
	for _, k := range Kinds {
		cum += in.cfg.rate(k)
		if u < cum {
			d := Decision{Fire: true, Kind: k}
			switch k {
			case KindDelay:
				d.Delay = in.delayLocked()
			case KindDrop:
				d.AckLoss = in.rng.Float64() < 0.5
			}
			in.counters[k].Add(1)
			in.total.Add(1)
			return d
		}
	}
	return Decision{}
}

// delayLocked samples the extra latency for a delay fault. Callers hold mu.
func (in *Injector) delayLocked() time.Duration {
	v := float64(in.cfg.DelayMean) + in.rng.NormFloat64()*float64(in.cfg.DelayStdDev)
	if min := float64(in.cfg.DelayMean) * 0.1; v < min {
		v = min
	}
	return time.Duration(v)
}

// DropTimeout returns the configured dropped-message timeout.
func (in *Injector) DropTimeout() time.Duration {
	if in == nil {
		return 0
	}
	return in.cfg.DropTimeout
}
