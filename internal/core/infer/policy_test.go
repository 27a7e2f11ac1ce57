package infer

import (
	"math/rand"
	"reflect"
	"slices"
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
		b := new(scratch).resetBlock(s)
		for _, attr := range []switchsim.Attribute{switchsim.AttrUseTime, switchsim.AttrTraffic, switchsim.AttrPriority} {
			b.perm[attr] = rng.Perm(s)
		}
		for a, perm := range b.perm {
			attr := switchsim.Attribute(a)
			if got, want := inversePerm(make([]int, s), perm), sortByRank(identityPerm(s), perm); !reflect.DeepEqual(got, want) {
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

// TestDrawPermIntoMatchesPerm: the in-place permutation Algorithm 2 draws is
// rand.Perm's, value for value, and leaves the generator where rand.Perm
// leaves it — so every later draw of an inspection is unchanged too.
func TestDrawPermIntoMatchesPerm(t *testing.T) {
	p := make([]int, 5000)
	pf := make([]float64, 5000)
	for _, seed := range []int64{0, 1, 7, 42, 1 << 40} {
		ref := rand.New(rand.NewSource(seed))
		got := rand.New(rand.NewSource(seed))
		for n := 0; n <= 5000; n++ {
			want := ref.Perm(n)
			// Stale values from the previous, one shorter, draw must not
			// leak into this one.
			drawPermInto(got, p[:n], pf[:n])
			if !slices.Equal(p[:n], want) {
				t.Fatalf("seed %d, n %d: drawPermInto differs from rand.Perm", seed, n)
			}
			for i, v := range want {
				if pf[i] != float64(v) {
					t.Fatalf("seed %d, n %d: float copy [%d] = %v, want %d", seed, n, i, pf[i], v)
				}
			}
		}
		if a, b := ref.Int63(), got.Int63(); a != b {
			t.Fatalf("seed %d: generator state diverged (%d vs %d)", seed, a, b)
		}
	}
}
