package flowtable

import (
	"errors"
	"fmt"
	"time"

	"tango/internal/packet"
)

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

// ErrWidthUnsupported is returned when an entry's width cannot be installed
// in the TCAM's current mode.
var ErrWidthUnsupported = errors.New("flowtable: entry width unsupported by TCAM mode")

// TCAM is a capacity-constrained priority flow table. Space accounting uses
// exact integer "units": a narrow entry costs CapacityWide units, a wide
// entry CapacityNarrow units, against a budget of CapacityNarrow ×
// CapacityWide units. This reproduces any (narrow, wide) capacity pair
// without floating-point drift. Take rules out with TCAM.Remove: the
// embedded Table's Delete would not release their units.
type TCAM struct {
	Table
	cfg       TCAMConfig
	usedUnits int64
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

// Config returns the TCAM's configuration.
func (t *TCAM) Config() TCAMConfig { return t.cfg }

// budgetUnits is the total space budget in units.
func (t *TCAM) budgetUnits() int64 {
	return int64(t.cfg.CapacityNarrow) * int64(t.cfg.CapacityWide)
}

// unitsFor returns the unit cost of installing an entry of width w, or an
// error when the mode cannot host it.
func (t *TCAM) unitsFor(w Width) (int64, error) {
	switch t.cfg.Mode {
	case ModeSingleWide:
		if w == WidthL2L3 {
			return 0, ErrWidthUnsupported
		}
		return int64(t.cfg.CapacityWide), nil
	case ModeDoubleWide:
		// Everything occupies a double-wide physical slot.
		return int64(t.cfg.CapacityNarrow), nil
	default: // ModeAdaptive
		if w == WidthL2L3 {
			return int64(t.cfg.CapacityNarrow), nil
		}
		return int64(t.cfg.CapacityWide), nil
	}
}

// Fits reports whether an entry of width w can currently be installed.
func (t *TCAM) Fits(w Width) bool {
	u, err := t.unitsFor(w)
	if err != nil {
		return false
	}
	return t.usedUnits+u <= t.budgetUnits()
}

// Insert installs the rule, charging its width against capacity. It returns
// the number of displaced (shifted) entries for the latency model.
func (t *TCAM) Insert(r *Rule, now time.Time) (shifted int, err error) {
	u, err := t.unitsFor(r.Match.Width())
	if err != nil {
		return 0, err
	}
	if existing := t.find(&r.Match, r.Priority); existing != nil {
		// Overwrite in place: no new space consumed.
		existing.Actions = r.Actions
		existing.Cookie = r.Cookie
		return 0, nil
	}
	if t.usedUnits+u > t.budgetUnits() {
		return 0, ErrTableFull
	}
	shifted, err = t.Table.Insert(r, now)
	if err != nil {
		return 0, err
	}
	t.usedUnits += u
	return shifted, nil
}

// Remove evicts the specific rule pointer, releasing space.
func (t *TCAM) Remove(r *Rule) bool {
	if !t.Table.Remove(r) {
		return false
	}
	t.release(r)
	return true
}

func (t *TCAM) release(r *Rule) {
	u, err := t.unitsFor(r.Match.Width())
	if err == nil {
		t.usedUnits -= u
		if t.usedUnits < 0 {
			t.usedUnits = 0
		}
	}
}

// Lookup returns the highest-priority matching rule (see Table.Lookup).
func (t *TCAM) Lookup(f *packet.Frame, inPort uint16) *Rule {
	return t.Table.Lookup(f, inPort)
}
