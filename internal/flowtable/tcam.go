package flowtable

import "fmt"

// TCAMMode selects how a TCAM charges entries of different widths against
// its capacity, reproducing the three hardware designs of Table 1.
type TCAMMode int

// TCAM operation modes.
const (
	// ModeSingleWide: entries may match only L2 or only L3 headers; a
	// double-wide (L2+L3) entry is rejected outright. Switch #1 configured
	// in "L2 only / L3 only" mode behaves this way with 4K entries.
	ModeSingleWide TCAMMode = iota
	// ModeDoubleWide: every entry occupies a double-wide slot regardless of
	// what it matches, so capacity is flat. Switch #2's 2560 entries for
	// any mix of L2/L3/L2+L3 rules indicate this mode.
	ModeDoubleWide
	// ModeAdaptive: narrow entries and wide entries are charged at
	// different rates, so capacity degrades gracefully as wide entries mix
	// in. Switch #3 (767 narrow vs 369 wide) works this way.
	ModeAdaptive
)

// String implements fmt.Stringer.
func (m TCAMMode) String() string {
	switch m {
	case ModeSingleWide:
		return "single-wide"
	case ModeDoubleWide:
		return "double-wide"
	default:
		return "adaptive"
	}
}

// TCAMConfig sizes a TCAM.
type TCAMConfig struct {
	Mode TCAMMode
	// CapacityNarrow is the entry count when every installed entry is
	// single-wide (L2-only or L3-only).
	CapacityNarrow int
	// CapacityWide is the entry count when every installed entry is
	// double-wide. Ignored in ModeSingleWide; equal to CapacityNarrow in
	// ModeDoubleWide designs like Switch #2.
	CapacityWide int
}

// TCAM is the width-aware space budget of a hardware table. It stores no
// rules: its owner keeps them and charges the budget for the ones it holds
// in the TCAM. Space accounting uses exact integer "units": a narrow entry
// costs CapacityWide units, a wide entry CapacityNarrow units, against a
// budget of CapacityNarrow × CapacityWide units. This reproduces any
// (narrow, wide) capacity pair without floating-point drift.
type TCAM struct {
	cfg       TCAMConfig
	usedUnits int64
	entries   int
}

// NewTCAM returns an empty TCAM with the given configuration. It panics on
// non-positive capacities, which indicate a broken vendor profile.
func NewTCAM(cfg TCAMConfig) *TCAM {
	if cfg.CapacityNarrow <= 0 {
		panic(fmt.Sprintf("flowtable: bad narrow capacity %d", cfg.CapacityNarrow))
	}
	if cfg.Mode != ModeSingleWide && cfg.CapacityWide <= 0 {
		panic(fmt.Sprintf("flowtable: bad wide capacity %d", cfg.CapacityWide))
	}
	if cfg.Mode == ModeSingleWide {
		cfg.CapacityWide = cfg.CapacityNarrow // unused but keeps units sane
	}
	return &TCAM{cfg: cfg}
}

// Len returns the number of entries charged to the TCAM.
func (t *TCAM) Len() int { return t.entries }

// budgetUnits is the total space budget in units.
func (t *TCAM) budgetUnits() int64 {
	return int64(t.cfg.CapacityNarrow) * int64(t.cfg.CapacityWide)
}

// unitsFor returns the unit cost of an entry of width w; ok is false when
// the mode cannot host it.
func (t *TCAM) unitsFor(w Width) (units int64, ok bool) {
	switch t.cfg.Mode {
	case ModeSingleWide:
		if w == WidthL2L3 {
			return 0, false
		}
		return int64(t.cfg.CapacityWide), true
	case ModeDoubleWide:
		// Everything occupies a double-wide physical slot.
		return int64(t.cfg.CapacityNarrow), true
	default: // ModeAdaptive
		if w == WidthL2L3 {
			return int64(t.cfg.CapacityNarrow), true
		}
		return int64(t.cfg.CapacityWide), true
	}
}

// Admits reports whether the TCAM's mode can host entries of width w at all.
func (t *TCAM) Admits(w Width) bool {
	_, ok := t.unitsFor(w)
	return ok
}

// Fits reports whether an entry of width w can be charged right now.
func (t *TCAM) Fits(w Width) bool {
	u, ok := t.unitsFor(w)
	return ok && t.usedUnits+u <= t.budgetUnits()
}

// Take charges one entry of width w against the budget, reporting false —
// and charging nothing — when it does not fit.
func (t *TCAM) Take(w Width) bool {
	if !t.Fits(w) {
		return false
	}
	u, _ := t.unitsFor(w)
	t.usedUnits += u
	t.entries++
	return true
}

// Release returns the space of one entry of width w that Take charged.
func (t *TCAM) Release(w Width) {
	u, _ := t.unitsFor(w)
	t.usedUnits -= u
	t.entries--
}
