package workload

// adversarial.go generates the flow-table overflow inference attack of
// arXiv 1504.03095: an adversary who can only install flows (as an ordinary
// tenant or via triggered table-misses) and time its own packets fills the
// switch's fast path with fresh flows while occasionally re-probing older
// "canary" flows it deliberately leaves untouched. The first canary whose
// revisit comes back slow has been evicted, which brackets the cache size
// between the fill counts of the last-resident and first-evicted canaries.
//
// The generator emits a deterministic operation schedule; executing it
// against a device and interpreting the canary timings is the conformance
// harness's job (internal/conformance), so the same schedule can drive both
// the attacker-succeeds experiment and the switch-side detector.

// AttackOpKind distinguishes the two operations an overflow attacker can
// perform against the device under attack.
type AttackOpKind int

const (
	// AttackInstall installs an exact-match rule for the op's flow.
	AttackInstall AttackOpKind = iota
	// AttackProbe sends one data-plane packet for the op's flow and times it.
	AttackProbe
)

// String implements fmt.Stringer.
func (k AttackOpKind) String() string {
	switch k {
	case AttackInstall:
		return "install"
	case AttackProbe:
		return "probe"
	}
	return "attack-op(?)"
}

// AttackOp is one step of an overflow-attack schedule.
type AttackOp struct {
	Kind AttackOpKind
	Flow uint32
}

// AttackFlowBase is the first flow ID the attacker mints. It keeps the
// attack's probe addresses clear of any concurrent inference traffic: probe
// IPs repeat every 1<<24 flow IDs, so the base is well below that and away
// from the inference engines' ID ranges.
const AttackFlowBase uint32 = 3 << 20

// AttackOptions parameterises OverflowAttack. The zero value selects
// defaults suitable for caches up to a few hundred entries.
type AttackOptions struct {
	// Canaries is the number of sentinel flows installed up front. Each is
	// revisited exactly once, so refreshing a canary's recency (which would
	// shield it from LRU-style eviction) can never happen twice.
	Canaries int
	// Step is the number of fill flows installed between canary revisits;
	// it bounds the estimate's resolution to ±Step/2 entries.
	Step int
	// MaxFills caps the fill phase. Canaries*Step must reach past the
	// largest cache the attack should resolve: the k-th canary is checked
	// after (k+1)*Step fills.
	MaxFills int
}

// WithDefaults resolves zero fields to the documented defaults. Schedule
// executors call it to recover the same flow-ID layout the generator used.
func (o AttackOptions) WithDefaults() AttackOptions {
	if o.Canaries <= 0 {
		o.Canaries = 16
	}
	if o.Step <= 0 {
		o.Step = 16
	}
	if o.MaxFills <= 0 {
		o.MaxFills = 320
	}
	return o
}

// OverflowAttack returns the attack schedule: install-and-probe every canary,
// then interleave fill flows (install + timing probe each) with one-shot
// canary revisits every Step fills. The schedule is a pure function of its
// options — the attack carries no randomness, which is exactly what makes its
// traffic detectable: fresh sequential flows at a near-constant rate.
func OverflowAttack(opts AttackOptions) []AttackOp {
	opts = opts.WithDefaults()
	ops := make([]AttackOp, 0, 2*opts.Canaries+2*opts.MaxFills+opts.MaxFills/opts.Step+1)
	base := AttackFlowBase
	for i := 0; i < opts.Canaries; i++ {
		c := base + uint32(i)
		ops = append(ops, AttackOp{AttackInstall, c}, AttackOp{AttackProbe, c})
	}
	fillBase := base + uint32(opts.Canaries)
	checked := 0
	for f := 0; f < opts.MaxFills; f++ {
		fl := fillBase + uint32(f)
		ops = append(ops, AttackOp{AttackInstall, fl}, AttackOp{AttackProbe, fl})
		if (f+1)%opts.Step == 0 && checked < opts.Canaries {
			ops = append(ops, AttackOp{AttackProbe, base + uint32(checked)})
			checked++
		}
	}
	return ops
}
