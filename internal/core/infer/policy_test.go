package infer

import (
	"math/rand"
	"reflect"
	"testing"

	"tango/internal/switchsim"
)

// sortByRank and sortBy are the insertion sorts Algorithm 2 ordered its flows
// with before its orders became permutation inverses. They stay here as the
// oracle: O(n²), but they say what "sorted by an attribute" means without
// assuming the values are a permutation.

// sortByRank returns idxs sorted ascending by rank[idx].
func sortByRank(idxs []int, rank []int) []int {
	out := append([]int(nil), idxs...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && rank[out[j]] < rank[out[j-1]]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// sortBy is a small insertion sort over ints with a custom less.
func sortBy(xs []int, less func(a, b int) bool) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && less(xs[j], xs[j-1]); j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func identityPerm(s int) []int {
	id := make([]int, s)
	for i := range id {
		id[i] = i
	}
	return id
}

// TestOrdersMatchSortOracle: for random permutations of every size Algorithm
// 2 can meet, the traffic and use-time orders (inversePerm) and each of the
// eight (attribute, direction) keep-orders are exactly what the insertion
// sorts produced.
func TestOrdersMatchSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	sizes := []int{100, 127, 128, 255, 256, 511, 512}
	for s := 1; s <= 64; s++ {
		sizes = append(sizes, s)
	}
	for _, s := range sizes {
		b := &probeBlock{perm: map[switchsim.Attribute][]int{
			switchsim.AttrInsertion: identityPerm(s),
			switchsim.AttrUseTime:   rng.Perm(s),
			switchsim.AttrTraffic:   rng.Perm(s),
			switchsim.AttrPriority:  rng.Perm(s),
		}}
		for attr, perm := range b.perm {
			if got, want := inversePerm(perm), sortByRank(identityPerm(s), perm); !reflect.DeepEqual(got, want) {
				t.Fatalf("size %d, %v: inversePerm = %v, sortByRank = %v", s, attr, got, want)
			}
			for _, high := range []bool{true, false} {
				want := identityPerm(s)
				sortBy(want, func(x, y int) bool {
					if high {
						return perm[x] > perm[y]
					}
					return perm[x] < perm[y]
				})
				got := b.keepOrder(switchsim.SortKey{Attr: attr, HighIsBetter: high})
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("size %d, %v keep-high=%v: keepOrder = %v, sortBy = %v", s, attr, high, got, want)
				}
			}
		}
	}
}
