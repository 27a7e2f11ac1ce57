// Package pattern defines Tango patterns — sequences of OpenFlow flow-mod
// commands paired with a corresponding data-traffic pattern — plus the
// central Tango Score database (TangoDB, §4 of the paper).
// The probing engine executes patterns against switches; the inference
// engine distils the measurements into per-switch ScoreCards; the scheduler
// consults the score database to pick rewrite orderings.
package pattern

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// OpKind is a flow-table operation type.
type OpKind int

// Operation kinds.
const (
	OpAdd OpKind = iota
	OpMod
	OpDel
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpAdd:
		return "add"
	case OpMod:
		return "mod"
	default:
		return "del"
	}
}

// Op is one flow-mod step of a pattern. FlowID selects the probe rule the
// op targets (see packet.BuildProbe / flowtable.ExactProbeMatch); SendProbe
// asks the engine to follow the op with a matching data-plane packet.
type Op struct {
	Kind      OpKind
	FlowID    uint32
	Priority  uint16
	SendProbe bool
}

// TrafficStep is one step of a pattern's data-traffic component.
type TrafficStep struct {
	FlowID uint32
	Count  int
}

// Pattern is a named probing recipe.
type Pattern struct {
	Name    string
	Ops     []Op
	Traffic []TrafficStep
}

// Order enumerates the priority orderings of §3's installation experiments.
type Order int

// Priority orderings.
const (
	OrderSame Order = iota
	OrderAscending
	OrderDescending
	OrderRandom
)

// String implements fmt.Stringer.
func (o Order) String() string {
	switch o {
	case OrderSame:
		return "same"
	case OrderAscending:
		return "ascending"
	case OrderDescending:
		return "descending"
	default:
		return "random"
	}
}

// Orders lists all priority orderings.
var Orders = []Order{OrderSame, OrderAscending, OrderDescending, OrderRandom}

// Priorities returns n priorities following the ordering. Random draws from
// rng (required only for OrderRandom).
func (o Order) Priorities(n int, rng *rand.Rand) []uint16 {
	out := make([]uint16, n)
	const base = 1000
	switch o {
	case OrderSame:
		for i := range out {
			out[i] = base
		}
	case OrderAscending:
		for i := range out {
			out[i] = uint16(base + i)
		}
	case OrderDescending:
		for i := range out {
			out[i] = uint16(base + n - i)
		}
	default:
		perm := rng.Perm(n)
		for i := range out {
			out[i] = uint16(base + perm[i])
		}
	}
	return out
}

// PriorityInstall builds the pattern that installs n fresh flows with the
// given priority ordering — the Figure 3(c) experiment.
func PriorityInstall(n int, order Order, rng *rand.Rand) Pattern {
	prios := order.Priorities(n, rng)
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = Op{Kind: OpAdd, FlowID: uint32(i), Priority: prios[i]}
	}
	return Pattern{
		Name: fmt.Sprintf("priority-install/%s/%d", order, n),
		Ops:  ops,
	}
}

// Permutation builds the Figure 3(a) pattern: nAdd adds, nMod mods, and
// nDel dels executed in the order given by perm (a permutation of
// {OpAdd, OpMod, OpDel}). Mods and dels target already-installed flows
// [0, nMod) and [nMod, nMod+nDel); adds create fresh flows. Adds use
// ascending priorities starting above base.
func Permutation(perm [3]OpKind, nAdd, nMod, nDel int, base uint16) Pattern {
	var ops []Op
	name := ""
	for _, k := range perm {
		if name != "" {
			name += "_"
		}
		name += k.String()
		switch k {
		case OpAdd:
			for i := 0; i < nAdd; i++ {
				ops = append(ops, Op{Kind: OpAdd, FlowID: uint32(100000 + i), Priority: base + uint16(i)})
			}
		case OpMod:
			for i := 0; i < nMod; i++ {
				ops = append(ops, Op{Kind: OpMod, FlowID: uint32(i), Priority: base})
			}
		case OpDel:
			for i := 0; i < nDel; i++ {
				ops = append(ops, Op{Kind: OpDel, FlowID: uint32(nMod + i), Priority: base})
			}
		}
	}
	return Pattern{
		Name: "perm/" + name,
		Ops:  ops,
	}
}

// Permutations3 lists all six orderings of add/mod/del. The delete-first
// orderings lead so that a scheduler breaking score ties takes them:
// deletions can only free TCAM space that later additions would otherwise
// shift past (the same bias the paper's example pattern list encodes).
var Permutations3 = [][3]OpKind{
	{OpDel, OpMod, OpAdd},
	{OpDel, OpAdd, OpMod},
	{OpMod, OpDel, OpAdd},
	{OpMod, OpAdd, OpDel},
	{OpAdd, OpDel, OpMod},
	{OpAdd, OpMod, OpDel},
}

// Result is the outcome of running a pattern: its total time and each
// executed op's latency, in order.
type Result struct {
	Total     time.Duration
	Latencies []time.Duration
}

// ScoreCard is the distilled cost model of one switch, fitted from probe
// measurements. It parallels the calibration constants of the emulator's
// ControlCosts but is *learned*, never copied — the whole point of Tango is
// that these numbers are inferred through the standard OpenFlow interface.
type ScoreCard struct {
	// SwitchName labels the device the card describes.
	SwitchName string
	// AddSamePriority is the per-op cost of an add at an already-used
	// priority.
	AddSamePriority time.Duration
	// AddNewPriority is the per-op cost of an add at a fresh priority with
	// no higher-priority entries present (ascending-order insertions).
	AddNewPriority time.Duration
	// ShiftPerEntry is the marginal cost per existing higher-priority entry
	// (the TCAM shift term); ~0 on software switches.
	ShiftPerEntry time.Duration
	// Mod and Del are per-op costs.
	Mod time.Duration
	Del time.Duration
	// TypeSwitch is the extra cost paid when an operation's class differs
	// from the previous one's — the measured batching effect that makes
	// grouping deletes/modifies/additions profitable even on switches with
	// flat per-op costs.
	TypeSwitch time.Duration
	// PathLatency maps inferred forwarding-tier index (0 = fastest) to its
	// mean RTT, from size probing.
	PathLatency []time.Duration
}

// CurvePoint is one (rule count, total duration) measurement.
type CurvePoint struct {
	N     int
	Total time.Duration
}

// EstimateOps predicts the cost of executing ops in the given sequence,
// simulating the higher-priority entry count the way a bottom-packed TCAM
// pays it. existingHigher maps a priority to the number of higher-priority
// entries resident before the batch (nil means none); deletions executed
// earlier in the batch credit back the space they free, which is what makes
// delete-before-add orderings score better when deletions target
// high-priority rules.
func (c *ScoreCard) EstimateOps(ops []Op, existingHigher func(uint16) int) time.Duration {
	e := estimators.Get().(*Estimator)
	e.Begin(c, existingHigher)
	e.Feed(ops)
	total := e.Total()
	e.card, e.existingHigher = nil, nil // the pool must not pin the caller's oracle
	estimators.Put(e)
	return total
}

// estimators recycles the one-shot estimators behind EstimateOps, so pricing
// a batch reuses grown priority buffers instead of regrowing them from nil.
var estimators = sync.Pool{New: func() any { return new(Estimator) }}

// upperBound returns the number of entries of the ascending-sorted s that
// are ≤ p — the index of the first entry above p. From that one lookup an
// add reads everything it needs: len(s)-at entries exceed p, p is present
// iff s[at-1] == p, and inserting at at keeps s sorted.
func upperBound(s []uint16, p uint16) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] <= p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// insertAt inserts p at index at of s.
func insertAt(s []uint16, at int, p uint16) []uint16 {
	s = append(s, 0)
	copy(s[at+1:], s[at:])
	s[at] = p
	return s
}

// Estimator is the streaming form of ScoreCard.EstimateOps: Begin binds a
// card, Feed folds op groups in, Total reads the running estimate. Feeding
// a batch group by group prices the concatenated sequence, so a scheduler
// can price a group in the context of the groups fed before it without
// materializing the sequence as a flat slice. The priority-tracking buffers
// are retained across Begin calls, making a reused Estimator allocation-free
// in steady state. An Estimator must not be used from multiple goroutines
// concurrently.
type Estimator struct {
	card           *ScoreCard
	existingHigher func(uint16) int
	// prios tracks priorities of adds fed so far; deleted tracks priorities
	// removed so far, and only when existingHigher is set — nothing reads it
	// otherwise. Membership in prios doubles as the seen-priority test:
	// priorities are only ever inserted, never removed.
	prios, deleted []uint16
	total          time.Duration
	lastKind       OpKind
	started        bool
}

// Begin resets the estimator for a fresh sequence priced against card.
func (e *Estimator) Begin(card *ScoreCard, existingHigher func(uint16) int) {
	e.card = card
	e.existingHigher = existingHigher
	e.prios = e.prios[:0]
	e.deleted = e.deleted[:0]
	e.total = 0
	e.started = false
}

// Feed folds the next ops of the sequence into the estimate.
func (e *Estimator) Feed(ops []Op) {
	c := e.card
	for _, op := range ops {
		if e.started && op.Kind != e.lastKind {
			e.total += c.TypeSwitch
		}
		e.started = true
		e.lastKind = op.Kind
		switch op.Kind {
		case OpMod:
			e.total += c.Mod
		case OpDel:
			e.total += c.Del
			if e.existingHigher != nil {
				e.deleted = insertAt(e.deleted, upperBound(e.deleted, op.Priority), op.Priority)
			}
		case OpAdd:
			at := upperBound(e.prios, op.Priority)
			higher := len(e.prios) - at
			if e.existingHigher != nil {
				freed := len(e.deleted) - upperBound(e.deleted, op.Priority)
				if ex := e.existingHigher(op.Priority) - freed; ex > 0 {
					higher += ex
				}
			}
			base := c.AddNewPriority
			if at > 0 && e.prios[at-1] == op.Priority {
				base = c.AddSamePriority
			}
			e.total += base + time.Duration(higher)*c.ShiftPerEntry
			e.prios = insertAt(e.prios, at, op.Priority)
		}
	}
}

// Total returns the estimate of everything fed since Begin.
func (e *Estimator) Total() time.Duration { return e.total }

// DB is the central Tango Score Database: a concurrency-safe store of
// per-switch score cards.
type DB struct {
	mu     sync.RWMutex
	scores map[string]*ScoreCard
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{scores: make(map[string]*ScoreCard)}
}

// PutScore stores the score card for a switch.
func (db *DB) PutScore(card *ScoreCard) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.scores[card.SwitchName] = card
}

// Score returns the score card for a switch.
func (db *DB) Score(switchName string) (*ScoreCard, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	c, ok := db.scores[switchName]
	return c, ok
}

// Switches returns the names of switches with score cards, sorted.
func (db *DB) Switches() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.scores))
	for n := range db.scores {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
