package workload

import (
	"math/rand"
	"time"

	"tango/internal/packet"
)

// churn.go generates heavy-churn control-plane workloads: a population of
// short-lived flows that are installed with idle/hard timeouts and
// sporadically touched on the data plane, so the switch's lazy expiry sweep
// (switchsim/expiry.go) continuously removes and re-admits rules while
// whatever else is using the switch — Tango's inference, in the conformance
// scenarios — runs concurrently.

// ChurnKind distinguishes churn events.
type ChurnKind int

const (
	// ChurnInstall (re-)installs the event's flow with the event's timeouts.
	ChurnInstall ChurnKind = iota
	// ChurnTouch sends one data-plane packet for the flow, refreshing its
	// idle timer if the rule is still live (a miss just punts — also churn).
	ChurnTouch
)

// String implements fmt.Stringer.
func (k ChurnKind) String() string {
	switch k {
	case ChurnInstall:
		return "install"
	case ChurnTouch:
		return "touch"
	}
	return "churn-op(?)"
}

// ChurnEvent is one timed step of a churn schedule. At is an offset from the
// start of whatever run replays the schedule, in virtual time.
type ChurnEvent struct {
	At          time.Duration
	Kind        ChurnKind
	Flow        uint32
	IdleTimeout uint16 // seconds; 0 = none (ChurnInstall only)
	HardTimeout uint16 // seconds; 0 = none (ChurnInstall only)
}

// ChurnOptions parameterises Churn.
type ChurnOptions struct {
	// Flows is the population size; events pick flows uniformly from it
	// (default 128). Re-installing a still-live flow is an OpenFlow
	// overwrite-in-place no-op, so the effective install rate is governed
	// by how fast timeouts free population slots.
	Flows int
	// Rate is the event rate in events per virtual second. Rate <= 0 means
	// no churn: Churn returns nil, which is the identity schedule the
	// no-observer-effect differential test relies on.
	Rate float64
	// Duration bounds the schedule (default 60s). Replays that finish
	// earlier simply never reach the tail events.
	Duration time.Duration
	// TouchFrac is the fraction of events that are data-plane touches
	// rather than installs (default 0.3).
	TouchFrac float64
	// Seed fixes the schedule's RNG.
	Seed int64
}

// minTimeout and maxTimeout bound the per-install timeout draw, in whole
// seconds (OpenFlow timeouts have second resolution).
const minTimeout, maxTimeout = 1, 3

func (o ChurnOptions) withDefaults() ChurnOptions {
	if o.Flows <= 0 {
		o.Flows = 128
	}
	if o.Duration <= 0 {
		o.Duration = 60 * time.Second
	}
	if o.TouchFrac <= 0 {
		o.TouchFrac = 0.3
	}
	return o
}

// Churn returns a deterministic churn schedule: events at fixed 1/Rate
// spacing, each picking a population flow and either re-installing it with a
// fresh random timeout or touching it on the data plane. Events are ordered
// by At. A non-positive rate returns nil.
func Churn(opts ChurnOptions) []ChurnEvent {
	if opts.Rate <= 0 {
		return nil
	}
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	interval := time.Duration(float64(time.Second) / opts.Rate)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	var out []ChurnEvent
	for at := interval; at <= opts.Duration; at += interval {
		ev := ChurnEvent{At: at, Flow: packet.ChurnFlows.Base() + uint32(rng.Intn(opts.Flows))}
		if rng.Float64() < opts.TouchFrac {
			ev.Kind = ChurnTouch
		} else {
			ev.Kind = ChurnInstall
			t := uint16(minTimeout + rng.Intn(maxTimeout-minTimeout+1))
			if rng.Intn(2) == 0 {
				ev.IdleTimeout = t
			} else {
				ev.HardTimeout = t
			}
		}
		out = append(out, ev)
	}
	return out
}
