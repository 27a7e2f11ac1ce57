package switchsim

import (
	"fmt"

	"tango/internal/flowtable"
)

// TableKind identifies the management style of a switch's table hierarchy.
type TableKind int

// Table-management styles seen across the vendors of §3.
const (
	// ManageTCAMOnly: a single TCAM table; inserts beyond capacity are
	// rejected with an OpenFlow "all tables full" error (Switches #2, #3).
	ManageTCAMOnly TableKind = iota
	// ManagePolicyCache: a TCAM cache in front of an (almost) unbounded
	// software table; a cache policy decides which rules live in the TCAM
	// (Switch #1 uses FIFO; the inference test matrix uses LRU/LFU/…).
	ManagePolicyCache
	// ManageMicroflow: OVS style — rules live in a user-space table and
	// data-plane traffic installs exact-match microflow entries into an
	// unbounded kernel table (the 1-to-N mapping of §3).
	ManageMicroflow
)

// String implements fmt.Stringer.
func (k TableKind) String() string {
	switch k {
	case ManageTCAMOnly:
		return "tcam-only"
	case ManagePolicyCache:
		return "policy-cache"
	default:
		return "microflow"
	}
}

// Profile describes one emulated switch model: its table hierarchy, cache
// policy, capacity limits, and latency calibration.
type Profile struct {
	// Name labels the profile in logs and experiment output.
	Name string
	// Kind selects the table-management style.
	Kind TableKind
	// TCAM sizes the hardware table (unused for ManageMicroflow).
	TCAM flowtable.TCAMConfig
	// SoftwareCapacity bounds the user-space table; 0 means the emulator's
	// default large bound. Software tables are "virtually unlimited" in the
	// paper; a finite bound keeps probing budgets sane and is documented as
	// a substitution in DESIGN.md.
	SoftwareCapacity int
	// KernelCapacity bounds the OVS kernel microflow cache (ManageMicroflow
	// only); 0 means unbounded within SoftwareCapacity.
	KernelCapacity int
	// CachePolicy governs TCAM residency for ManagePolicyCache.
	CachePolicy Policy

	// FastPath, MidPath, SlowPath, ControlPath are the per-tier data-plane
	// round-trip latencies. MidPath is used only by three-tier hardware
	// hierarchies that split their fast path (Figure 5); zero disables it.
	FastPath    LatencyDist
	MidPath     LatencyDist
	SlowPath    LatencyDist
	ControlPath LatencyDist

	// Costs calibrates control-channel operation latencies.
	Costs ControlCosts

	// MidPathSlots is the number of TCAM entries served at FastPath speed;
	// entries beyond it (but still in TCAM) pay MidPath. Zero means the
	// whole TCAM runs at FastPath. This models the two fast banks visible
	// in Figure 5.
	MidPathSlots int

	// NumPorts is the number of physical ports reported in FEATURES_REPLY;
	// zero means 48 (a typical top-of-rack configuration).
	NumPorts int

	// DatapathID is reported in FEATURES_REPLY.
	DatapathID uint64
}

// numPorts returns the effective port count.
func (p *Profile) numPorts() int {
	if p.NumPorts > 0 {
		return p.NumPorts
	}
	return 48
}

// defaultSoftwareCapacity bounds "virtually unlimited" software tables.
const defaultSoftwareCapacity = 1 << 17

// Vendor profiles calibrated against the measurements in §3 of the paper.
// The latency means come straight from the text; standard deviations are
// chosen to match the visual spread of Figures 2 and 5.

// OVS models the Open vSwitch software switch: unbounded user-space and
// kernel tables, traffic-driven microflow caching, three latency tiers
// around 3 / 4.5 / 4.65 ms, and priority-independent rule installation of
// roughly 50 µs per flow-mod.
func OVS() Profile {
	return Profile{
		Name:             "OVS",
		Kind:             ManageMicroflow,
		SoftwareCapacity: defaultSoftwareCapacity,
		FastPath:         LatencyDist{Mean: ms(3.0), StdDev: ms(0.08)},
		SlowPath:         LatencyDist{Mean: ms(4.5), StdDev: ms(0.45)},
		ControlPath:      LatencyDist{Mean: ms(4.65), StdDev: ms(0.12)},
		Costs: ControlCosts{
			AddBase:         us(52),
			ModBase:         us(55),
			DelBase:         us(45),
			TypeSwitchDelta: us(45),
			JitterFrac:      0.05,
		},
		DatapathID: 0x00000000_0000_0001,
	}
}

// Switch1 models the Vendor #1 hardware switch: a FIFO software table in
// front of a TCAM holding 4K single-wide or 2K double-wide entries, three
// latency tiers at 0.665 / 3.7 / 7.5 ms, and strongly priority-dependent
// installation costs (ascending ≈12× faster than random, ≈40× faster than
// descending at a few thousand rules).
func Switch1() Profile {
	return Switch1Mode(flowtable.ModeDoubleWide)
}

// Switch1Mode returns the Switch #1 profile with its TCAM configured in the
// given user-selectable mode: single-wide gives 4K L2-only/L3-only entries,
// double-wide gives 2K L2+L3 entries (Table 1).
func Switch1Mode(mode flowtable.TCAMMode) Profile {
	cfg := flowtable.TCAMConfig{Mode: mode, CapacityNarrow: 4096, CapacityWide: 4096}
	if mode == flowtable.ModeDoubleWide {
		cfg.CapacityNarrow = 2048
		cfg.CapacityWide = 2048
	}
	return Profile{
		Name:             "Switch#1",
		Kind:             ManagePolicyCache,
		TCAM:             cfg,
		SoftwareCapacity: 8192, // 256 user-space virtual tables
		CachePolicy:      PolicyFIFO,
		FastPath:         LatencyDist{Mean: ms(0.665), StdDev: ms(0.02)},
		SlowPath:         LatencyDist{Mean: ms(3.7), StdDev: ms(0.25)},
		ControlPath:      LatencyDist{Mean: ms(7.5), StdDev: ms(0.7)},
		Costs: ControlCosts{
			AddBase:          us(420),
			AddPriorityDelta: us(480),
			ShiftUnit:        us(14),
			ModBase:          ms(6.0),
			DelBase:          ms(2.0),
			TypeSwitchDelta:  us(300),
			JitterFrac:       0.06,
		},
		DatapathID: 0x00000000_0000_0011,
	}
}

// Switch2 models the Vendor #2 hardware switch: TCAM-only with 2560 entries
// regardless of entry width (a fixed double-wide design), two latency tiers
// at 0.4 / 8 ms. FigureFiveSwitch is the variant whose TCAM additionally
// splits into the two fast banks Figure 5 shows.
func Switch2() Profile {
	return Profile{
		Name: "Switch#2",
		Kind: ManageTCAMOnly,
		TCAM: flowtable.TCAMConfig{
			Mode:           flowtable.ModeDoubleWide,
			CapacityNarrow: 2560,
			CapacityWide:   2560,
		},
		FastPath:    LatencyDist{Mean: ms(0.40), StdDev: ms(0.03)},
		ControlPath: LatencyDist{Mean: ms(8.0), StdDev: ms(0.7)},
		Costs: ControlCosts{
			AddBase:          us(500),
			AddPriorityDelta: us(400),
			ShiftUnit:        us(12),
			ModBase:          ms(5.0),
			DelBase:          ms(1.8),
			TypeSwitchDelta:  us(250),
			JitterFrac:       0.06,
		},
		DatapathID: 0x00000000_0000_0022,
	}
}

// Switch3 models the Vendor #3 hardware switch: TCAM-only with an adaptive
// width design holding 767 single-wide or 369 double-wide entries.
func Switch3() Profile {
	return Profile{
		Name: "Switch#3",
		Kind: ManageTCAMOnly,
		TCAM: flowtable.TCAMConfig{
			Mode:           flowtable.ModeAdaptive,
			CapacityNarrow: 767,
			CapacityWide:   369,
		},
		FastPath:    LatencyDist{Mean: ms(0.5), StdDev: ms(0.04)},
		ControlPath: LatencyDist{Mean: ms(8.5), StdDev: ms(0.7)},
		Costs: ControlCosts{
			AddBase:          us(600),
			AddPriorityDelta: us(500),
			// Vendor #3's TCAM manager reorganises aggressively on
			// out-of-order priority insertion (its small table and slow
			// management CPU make per-entry moves an order of magnitude
			// dearer than Vendor #1's); this is what makes the Figure 10
			// link-failure scenario — 400 additions on the Vendor #3
			// switch — improve ~70% under Tango's priority pattern.
			ShiftUnit:       us(150),
			ModBase:         ms(7.0),
			DelBase:         ms(2.5),
			TypeSwitchDelta: us(350),
			JitterFrac:      0.07,
		},
		DatapathID: 0x00000000_0000_0033,
	}
}

// WithPolicy returns a copy of a policy-cache profile using the given cache
// policy; the inference accuracy matrix sweeps this across FIFO, LRU, LFU,
// priority, and LEX composites.
func (p Profile) WithPolicy(policy Policy) Profile {
	p.CachePolicy = policy
	return p
}

// WithTCAMCapacity returns a copy with the TCAM scaled to hold n entries in
// its current mode — probing tests use small caches to keep budgets tight.
func (p Profile) WithTCAMCapacity(n int) Profile {
	p.TCAM.CapacityNarrow = n
	p.TCAM.CapacityWide = n
	return p
}

// TestSwitch returns a small, fast policy-cache profile for unit tests and
// inference experiments: cacheSize TCAM entries above an unbounded software
// table, with crisp latency tiers for unambiguous clustering.
func TestSwitch(cacheSize int, policy Policy) Profile {
	return Profile{
		Name:             "test-switch",
		Kind:             ManagePolicyCache,
		TCAM:             flowtable.TCAMConfig{Mode: flowtable.ModeDoubleWide, CapacityNarrow: cacheSize, CapacityWide: cacheSize},
		SoftwareCapacity: 1 << 15,
		CachePolicy:      policy,
		FastPath:         LatencyDist{Mean: ms(0.5), StdDev: ms(0.02)},
		SlowPath:         LatencyDist{Mean: ms(4.0), StdDev: ms(0.2)},
		ControlPath:      LatencyDist{Mean: ms(9.0), StdDev: ms(0.5)},
		Costs: ControlCosts{
			AddBase:          us(300),
			AddPriorityDelta: us(200),
			ShiftUnit:        us(10),
			ModBase:          ms(3),
			DelBase:          ms(1),
			TypeSwitchDelta:  us(150),
			JitterFrac:       0.05,
		},
		DatapathID: 0x7e57,
	}
}

// FigureFiveSwitch reproduces the three-tier RTT structure of Figure 5: two
// fast TCAM banks and a slow path, probed with ~2500 installed flows.
func FigureFiveSwitch() Profile {
	p := Switch2()
	p.Name = "Switch#2-fig5"
	p.Kind = ManagePolicyCache
	p.TCAM = flowtable.TCAMConfig{Mode: flowtable.ModeDoubleWide, CapacityNarrow: 2047, CapacityWide: 2047}
	p.SoftwareCapacity = 8192
	p.CachePolicy = PolicyFIFO
	p.MidPathSlots = 1024
	// RTTs in Figure 5 range over 0–160 in units of 10^-2 ms. Physical
	// TCAM bank latencies are tight; the narrow jitter is what lets the
	// clustering stage resolve the two fast banks as distinct tiers.
	p.FastPath = LatencyDist{Mean: ms(0.30), StdDev: ms(0.012)}
	p.MidPath = LatencyDist{Mean: ms(0.55), StdDev: ms(0.015)}
	p.SlowPath = LatencyDist{Mean: ms(1.40), StdDev: ms(0.06)}
	return p
}

// ProfileByName returns the vendor profile a command-line name selects.
func ProfileByName(name string) (Profile, error) {
	switch name {
	case "ovs":
		return OVS(), nil
	case "switch1":
		return Switch1(), nil
	case "switch2":
		return Switch2(), nil
	case "switch3":
		return Switch3(), nil
	case "fig5":
		return FigureFiveSwitch(), nil
	}
	return Profile{}, fmt.Errorf("switchsim: unknown profile %q (want ovs, switch1, switch2, switch3, fig5)", name)
}
