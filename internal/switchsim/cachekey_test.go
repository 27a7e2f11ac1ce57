package switchsim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tango/internal/flowtable"
)

// keyPair draws two entries the way a switch could hold them: insertion and
// use times are distinct event-counter values (an entry's use time starts
// at its insertion time), while priority and traffic come from pools that
// make ties likely and include their extremes — priority 0 and 65535,
// traffic at the 2^48 − 1 packing bound. One pair in three shares every
// non-serial attribute.
func keyPair(rng *rand.Rand, a, b *entry) {
	prios := []uint16{0, 1, 100, 65534, 65535}
	traffics := []uint64{0, 1, 2, 1<<48 - 2, 1<<48 - 1}
	for _, e := range []*entry{a, b} {
		prio := prios[rng.Intn(len(prios))]
		if rng.Intn(3) == 0 {
			prio = uint16(rng.Intn(1 << 16))
		}
		e.traffic = traffics[rng.Intn(len(traffics))]
		if rng.Intn(3) == 0 {
			e.traffic = uint64(rng.Int63n(1 << 48))
		}
		e.rule = &flowtable.Rule{Priority: prio}
	}
	if rng.Intn(3) == 0 {
		b.traffic, b.rule.Priority = a.traffic, a.rule.Priority
	}
	var seqs [4]uint64
	for i := range seqs {
		for {
			seqs[i] = rng.Uint64() >> uint(rng.Intn(60))
			if !slices.Contains(seqs[:i], seqs[i]) {
				break
			}
		}
	}
	a.insertSeq, b.insertSeq = seqs[0], seqs[1]
	a.useSeq, b.useSeq = seqs[2], seqs[3]
	if rng.Intn(2) == 0 {
		a.useSeq = a.insertSeq // never touched
	}
}

// randomComposite draws any LEX composite a caller could pass: zero to four
// keys over all four attributes in either direction, repeats allowed, so
// keep-low use time, three-key priority/traffic orders and composites
// without a serial key all occur.
func randomComposite(rng *rand.Rand) Policy {
	var p Policy
	for i := rng.Intn(5); i > 0; i-- {
		p.Keys = append(p.Keys, SortKey{Attr: Attributes[rng.Intn(len(Attributes))], HighIsBetter: rng.Intn(2) == 0})
	}
	return p
}

// TestCacheKeyOrder holds every cache key to its policy's reference
// comparator: for random entry pairs, a's key exceeds b's exactly when the
// reference keeps a over b.
func TestCacheKeyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	policies := []Policy{
		PolicyFIFO, PolicyLRU, PolicyLFU, PolicyPriority, {},
		{Keys: []SortKey{{AttrUseTime, false}}},
		{Keys: []SortKey{{AttrInsertion, true}}},
		{Keys: []SortKey{{AttrTraffic, false}, {AttrPriority, true}, {AttrUseTime, true}}},
		{Keys: []SortKey{{AttrPriority, false}, {AttrTraffic, true}, {AttrInsertion, true}}},
		{Keys: []SortKey{{AttrPriority, true}, {AttrTraffic, false}, {AttrUseTime, false}}},
		{Keys: []SortKey{{AttrTraffic, true}, {AttrPriority, false}}},
	}
	for i := 0; i < 200; i++ {
		policies = append(policies, randomComposite(rng))
	}
	var a, b entry
	for _, p := range policies {
		k := p.lexKey()
		for i := 0; i < 500; i++ {
			keyPair(rng, &a, &b)
			if got, want := k.of(&b).less(k.of(&a)), p.better(&a, &b); got != want {
				t.Fatalf("%v: key keeps %+v over %+v: %v, reference says %v", p, a, b, got, want)
			}
		}
	}

	t.Run("fdrc", func(t *testing.T) {
		st := &fdrcState{window: 8, cells: make([]fdrcCell, 3)}
		a, b := entry{self: 1}, entry{self: 2}
		for i := 0; i < 20000; i++ {
			keyPair(rng, &a, &b)
			st.epoch = uint64(rng.Intn(4))
			for _, e := range []*entry{&a, &b} {
				st.cells[e.self] = fdrcCell{
					epoch: uint64(rng.Intn(4)), cur: uint64(rng.Intn(3)), prev: uint64(rng.Intn(3)),
				}
			}
			if got, want := st.key(&b).less(st.key(&a)), st.better(&a, &b); got != want {
				t.Fatalf("key keeps %+v (%+v) over %+v (%+v): %v, reference says %v",
					a, st.cells[1], b, st.cells[2], got, want)
			}
		}
	})

	t.Run("destagg", func(t *testing.T) {
		for i := 0; i < 20000; i++ {
			st := &destAggState{groups: make([]destGroup, 1)}
			ar := make([]entry, 3)
			a, b := &ar[1], &ar[2]
			keyPair(rng, a, b)
			a.self, b.self = 1, 2
			a.rule.Match = flowtable.ExactProbeMatch(uint32(rng.Intn(48)))
			b.rule.Match = flowtable.ExactProbeMatch(uint32(rng.Intn(48)))
			for _, e := range []*entry{a, b} {
				if rng.Intn(4) > 0 { // else a contender, scored by key lookup
					_, g := st.join(e)
					g.score = uint64(rng.Intn(3))
				}
			}
			if got, want := st.key(b).less(st.key(a)), st.better(a, b); got != want {
				t.Fatalf("key keeps %+v over %+v: %v, reference says %v", *a, *b, got, want)
			}
		}
	})
}

// TestCacheKeyTrafficBound pins what the packed key does at and past the
// 2^48-packet bound: exact up to it, saturated beyond, never wrapped.
func TestCacheKeyTrafficBound(t *testing.T) {
	for _, p := range []Policy{
		{Keys: []SortKey{{AttrPriority, true}, {AttrTraffic, true}, {AttrUseTime, true}}},
		{Keys: []SortKey{{AttrTraffic, false}, {AttrPriority, true}, {AttrUseTime, true}}},
	} {
		k := p.lexKey()
		key := func(traffic uint64) cacheKey {
			return k.of(&entry{traffic: traffic, useSeq: 7, rule: &flowtable.Rule{Priority: 9}})
		}
		bound := uint64(1)<<48 - 1
		t.Run(fmt.Sprint(p), func(t *testing.T) {
			if p.Keys[0].Attr == AttrPriority {
				if !key(bound - 1).less(key(bound)) {
					t.Errorf("traffic %d does not order below %d", bound-1, bound)
				}
			} else if !key(bound).less(key(bound - 1)) {
				t.Errorf("keep-low traffic %d does not order below %d", bound, bound-1)
			}
			if key(bound+1) != key(bound) || key(^uint64(0)) != key(bound) {
				t.Errorf("traffic past the bound does not saturate")
			}
		})
	}
}
