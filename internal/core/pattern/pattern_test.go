package pattern

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestOrderPriorities(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 10
	same := OrderSame.Priorities(n, rng)
	for _, p := range same {
		if p != same[0] {
			t.Fatal("same-order priorities differ")
		}
	}
	asc := OrderAscending.Priorities(n, rng)
	desc := OrderDescending.Priorities(n, rng)
	for i := 1; i < n; i++ {
		if asc[i] <= asc[i-1] {
			t.Fatal("ascending not increasing")
		}
		if desc[i] >= desc[i-1] {
			t.Fatal("descending not decreasing")
		}
	}
	rnd := OrderRandom.Priorities(n, rng)
	seen := map[uint16]bool{}
	for _, p := range rnd {
		if seen[p] {
			t.Fatal("random priorities collide")
		}
		seen[p] = true
	}
}

func TestPriorityInstallPattern(t *testing.T) {
	p := PriorityInstall(5, OrderAscending, nil)
	if len(p.Ops) != 5 {
		t.Fatalf("ops = %d", len(p.Ops))
	}
	for i, op := range p.Ops {
		if op.Kind != OpAdd || op.FlowID != uint32(i) {
			t.Fatalf("op %d = %+v", i, op)
		}
	}
}

func TestPermutationPattern(t *testing.T) {
	p := Permutation([3]OpKind{OpDel, OpMod, OpAdd}, 3, 2, 1, 100)
	if p.Name != "perm/del_mod_add" {
		t.Fatalf("name = %q", p.Name)
	}
	if len(p.Ops) != 6 {
		t.Fatalf("ops = %d", len(p.Ops))
	}
	if p.Ops[0].Kind != OpDel || p.Ops[1].Kind != OpMod || p.Ops[3].Kind != OpAdd {
		t.Fatalf("op order wrong: %+v", p.Ops)
	}
}

func TestScoreCardEstimateOrdering(t *testing.T) {
	card := &ScoreCard{
		AddSamePriority: 400 * time.Microsecond,
		AddNewPriority:  900 * time.Microsecond,
		ShiftPerEntry:   14 * time.Microsecond,
		Mod:             6 * time.Millisecond,
		Del:             2 * time.Millisecond,
	}
	n := 500
	mk := func(prio func(i int) uint16) []Op {
		ops := make([]Op, n)
		for i := range ops {
			ops[i] = Op{Kind: OpAdd, Priority: prio(i)}
		}
		return ops
	}
	same := card.EstimateOps(mk(func(i int) uint16 { return 100 }), nil)
	asc := card.EstimateOps(mk(func(i int) uint16 { return uint16(100 + i) }), nil)
	desc := card.EstimateOps(mk(func(i int) uint16 { return uint16(2000 - i) }), nil)
	if !(same < asc && asc < desc) {
		t.Fatalf("estimate ordering: same=%v asc=%v desc=%v", same, asc, desc)
	}
	// Descending pays the full quadratic shift bill.
	wantShift := time.Duration(n*(n-1)/2) * card.ShiftPerEntry
	if desc-asc < wantShift {
		t.Fatalf("desc-asc = %v, want ≥ %v", desc-asc, wantShift)
	}
	// Existing higher-priority entries raise the cost.
	withExisting := card.EstimateOps(mk(func(i int) uint16 { return uint16(100 + i) }),
		func(p uint16) int { return 1000 })
	if withExisting <= asc {
		t.Fatal("existingHigher ignored")
	}
}

func TestScoreCardEstimateMixedOps(t *testing.T) {
	card := &ScoreCard{Mod: time.Millisecond, Del: 2 * time.Millisecond, AddNewPriority: 3 * time.Millisecond}
	ops := []Op{{Kind: OpMod}, {Kind: OpDel}, {Kind: OpAdd, Priority: 5}}
	if got := card.EstimateOps(ops, nil); got != 6*time.Millisecond {
		t.Fatalf("estimate = %v, want 6ms", got)
	}
}

func TestDBPatternsAndScores(t *testing.T) {
	db := NewDB()
	db.PutScore(&ScoreCard{SwitchName: "s1"})
	db.PutScore(&ScoreCard{SwitchName: "s0"})
	if got := db.Switches(); len(got) != 2 || got[0] != "s0" {
		t.Fatalf("switches = %v", got)
	}
	if _, ok := db.Score("s1"); !ok {
		t.Fatal("score s1 missing")
	}
}

// Property: EstimateOps is invariant to flow IDs and monotone in op count.
func TestEstimateMonotoneProperty(t *testing.T) {
	card := &ScoreCard{
		AddSamePriority: time.Millisecond,
		AddNewPriority:  2 * time.Millisecond,
		ShiftPerEntry:   time.Microsecond,
		Mod:             time.Millisecond,
		Del:             time.Millisecond,
	}
	f := func(kinds []uint8, prios []uint16) bool {
		n := len(kinds)
		if len(prios) < n {
			n = len(prios)
		}
		if n > 200 {
			n = 200
		}
		ops := make([]Op, n)
		for i := 0; i < n; i++ {
			ops[i] = Op{Kind: OpKind(kinds[i] % 3), Priority: prios[i]}
		}
		prev := time.Duration(0)
		for i := 0; i <= n; i++ {
			cur := card.EstimateOps(ops[:i], nil)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// naiveEstimate is EstimateOps without the sorted buffers: every add scans
// all earlier ops of the sequence.
func naiveEstimate(c *ScoreCard, ops []Op, existingHigher func(uint16) int) time.Duration {
	var total time.Duration
	for i, op := range ops {
		if i > 0 && ops[i-1].Kind != op.Kind {
			total += c.TypeSwitch
		}
		switch op.Kind {
		case OpMod:
			total += c.Mod
		case OpDel:
			total += c.Del
		case OpAdd:
			higher, freed, seen := 0, 0, false
			for _, prev := range ops[:i] {
				switch {
				case prev.Kind == OpAdd && prev.Priority > op.Priority:
					higher++
				case prev.Kind == OpAdd && prev.Priority == op.Priority:
					seen = true
				case prev.Kind == OpDel && prev.Priority > op.Priority:
					freed++
				}
			}
			if existingHigher != nil {
				if ex := existingHigher(op.Priority) - freed; ex > 0 {
					higher += ex
				}
			}
			base := c.AddNewPriority
			if seen {
				base = c.AddSamePriority
			}
			total += base + time.Duration(higher)*c.ShiftPerEntry
		}
	}
	return total
}

// TestEstimateMatchesNaive holds the estimator's one-lookup-per-add
// bookkeeping to the quadratic definition, on sequences dense in duplicate
// priorities (including the uint16 extremes), with and without an oracle.
func TestEstimateMatchesNaive(t *testing.T) {
	card := &ScoreCard{
		AddSamePriority: 401 * time.Microsecond,
		AddNewPriority:  907 * time.Microsecond,
		ShiftPerEntry:   13 * time.Microsecond,
		Mod:             6007 * time.Microsecond,
		Del:             2003 * time.Microsecond,
		TypeSwitch:      311 * time.Microsecond,
	}
	prios := []uint16{0, 1, 2, 7, 7, 100, 65534, 65535}
	oracle := func(p uint16) int { return int(65535-p) % 5 }
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]Op, rng.Intn(80))
		for i := range ops {
			ops[i] = Op{Kind: OpKind(rng.Intn(3)), Priority: prios[rng.Intn(len(prios))]}
		}
		for _, existing := range []func(uint16) int{nil, oracle} {
			if got, want := card.EstimateOps(ops, existing), naiveEstimate(card, ops, existing); got != want {
				t.Fatalf("seed %d (oracle=%v): estimate %v, want %v", seed, existing != nil, got, want)
			}
		}
	}
}

// BenchmarkEstimatorFeed prices a 512-add group on a reused estimator — the
// scheduler's inner loop — in ascending order (every insert lands at the
// tail), in descending order (every insert shifts the buffer), and behind
// 128 deletes with an ExistingHigher oracle set.
func BenchmarkEstimatorFeed(b *testing.B) {
	card := &ScoreCard{AddSamePriority: 400 * time.Microsecond, AddNewPriority: 900 * time.Microsecond,
		ShiftPerEntry: 14 * time.Microsecond, Del: 2 * time.Millisecond, TypeSwitch: 300 * time.Microsecond}
	rng := rand.New(rand.NewSource(1))
	asc := make([]Op, 512)
	for i := range asc {
		asc[i] = Op{Kind: OpAdd, Priority: uint16(1000 + rng.Intn(6400))}
	}
	slices.SortFunc(asc, func(a, b Op) int { return cmp.Compare(a.Priority, b.Priority) })
	desc := slices.Clone(asc)
	slices.Reverse(desc)
	dels := make([]Op, 128)
	for i := range dels {
		dels[i] = Op{Kind: OpDel, Priority: uint16(1000 + rng.Intn(6400))}
	}
	oracle := func(p uint16) int { return int(8000-p) / 16 }
	for _, bc := range []struct {
		name     string
		existing func(uint16) int
		groups   [][]Op
	}{
		{"asc", nil, [][]Op{asc}},
		{"desc", nil, [][]Op{desc}},
		{"oracle", oracle, [][]Op{dels, asc}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var e Estimator
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.Begin(card, bc.existing)
				for _, g := range bc.groups {
					e.Feed(g)
				}
			}
		})
	}
}
