package flowtable

import (
	"math/rand"
	"testing"
)

// collidingKeys brute-forces n distinct nonzero keys whose hashed home
// slot is exactly home under the given index mask.
func collidingKeys(mask uint64, home uint64, n int) []uint64 {
	keys := make([]uint64, 0, n)
	for k := uint64(1); len(keys) < n; k++ {
		if hashKey(k)&mask == home {
			keys = append(keys, k)
		}
	}
	return keys
}

// checkIndex verifies that every key in want resolves to its value, that
// every key in gone resolves to 0, and that used counts the occupied slots.
func checkIndex(t *testing.T, x *KeyIndex[int32], want map[uint64]int32, gone []uint64) {
	t.Helper()
	for k, v := range want {
		if got := x.Get(k); got != v {
			t.Fatalf("Get(%#x) = %d, want %d", k, got, v)
		}
	}
	for _, k := range gone {
		if got := x.Get(k); got != 0 {
			t.Fatalf("Get(%#x) = %d after delete, want 0", k, got)
		}
	}
	occupied := 0
	for _, v := range x.vals {
		if v != 0 {
			occupied++
		}
	}
	if occupied != x.used || x.used != len(want) {
		t.Fatalf("used = %d, %d slots occupied, %d keys live", x.used, occupied, len(want))
	}
}

// TestExactIndexDeletionClustering drives the open-addressing index's
// backward-shift deletion through its adversarial shapes: long runs of
// same-home keys deleted front-first, back-first, and in random order;
// interleaved chains from adjacent home slots; and a chain that wraps the
// index boundary. After every single delete, every surviving key must
// still resolve — the tombstone-free invariant.
func TestExactIndexDeletionClustering(t *testing.T) {
	newIndex := func() (*KeyIndex[int32], uint64) {
		x := &KeyIndex[int32]{}
		x.init(40) // capacity 64: holds 48 keys before growth
		return x, uint64(len(x.vals) - 1)
	}

	deleteOrders := []struct {
		name  string
		order func(n int, rng *rand.Rand) []int
	}{
		{"front-first", func(n int, _ *rand.Rand) []int {
			idx := make([]int, n)
			for i := range idx {
				idx[i] = i
			}
			return idx
		}},
		{"back-first", func(n int, _ *rand.Rand) []int {
			idx := make([]int, n)
			for i := range idx {
				idx[i] = n - 1 - i
			}
			return idx
		}},
		{"random", func(n int, rng *rand.Rand) []int { return rng.Perm(n) }},
	}

	shapes := []struct {
		name string
		keys func(mask uint64) []uint64
	}{
		{"one-home", func(mask uint64) []uint64 {
			return collidingKeys(mask, 5, 20)
		}},
		{"interleaved-homes", func(mask uint64) []uint64 {
			a := collidingKeys(mask, 9, 8)
			b := collidingKeys(mask, 10, 8)
			c := collidingKeys(mask, 11, 8)
			var keys []uint64
			for i := 0; i < 8; i++ {
				keys = append(keys, a[i], b[i], c[i])
			}
			return keys
		}},
		{"wrapping", func(mask uint64) []uint64 {
			// Home at the last slot: the probe chain wraps through 0.
			return collidingKeys(mask, mask, 16)
		}},
	}

	for _, shape := range shapes {
		for _, ord := range deleteOrders {
			t.Run(shape.name+"/"+ord.name, func(t *testing.T) {
				x, mask := newIndex()
				rng := rand.New(rand.NewSource(11))
				keys := shape.keys(mask)
				want := map[uint64]int32{}
				for i, k := range keys {
					v := int32(i + 1)
					x.Put(k, v)
					want[k] = v
				}
				checkIndex(t, x, want, nil)
				var gone []uint64
				for _, i := range ord.order(len(keys), rng) {
					x.Del(keys[i])
					delete(want, keys[i])
					gone = append(gone, keys[i])
					checkIndex(t, x, want, gone)
				}
			})
		}
	}
}

// TestExactIndexChurnAndGrow interleaves colliding inserts, overwrites,
// deletes, and re-inserts past the growth threshold, checking that growth
// rehashes chains correctly and that deletion never strands a key.
func TestExactIndexChurnAndGrow(t *testing.T) {
	x := &KeyIndex[int32]{}
	x.init(0) // start at minimum capacity so growth happens mid-churn
	startCap := len(x.vals)
	rng := rand.New(rand.NewSource(23))
	want := map[uint64]int32{}
	var pool []uint64
	next := int32(1)
	for step := 0; step < 3000; step++ {
		if rng.Intn(3) > 0 || len(pool) == 0 {
			k := uint64(rng.Int63())&0xffff + 1 // small space: heavy collisions
			if _, dup := want[k]; !dup {
				pool = append(pool, k)
			}
			x.Put(k, next)
			want[k] = next
			next++
		} else {
			i := rng.Intn(len(pool))
			k := pool[i]
			pool = append(pool[:i], pool[i+1:]...)
			x.Del(k)
			delete(want, k)
		}
	}
	if len(x.vals) <= startCap {
		t.Fatalf("index never grew (cap %d); churn too small", len(x.vals))
	}
	checkIndex(t, x, want, nil)
}

// TestExactIndexZeroKey pins down the zero-key corner: emptiness is
// signalled by a zero value, not a zero key, so the all-zero address pair
// is a perfectly valid key.
func TestExactIndexZeroKey(t *testing.T) {
	var x KeyIndex[int32]
	if got := x.Get(0); got != 0 {
		t.Fatalf("Get(0) = %d on an empty index, want 0", got)
	}
	x.Put(0, 7)
	if got := x.Get(0); got != 7 {
		t.Fatalf("Get(0) = %d, want 7", got)
	}
	x.Put(0, 9)
	if got := x.Get(0); got != 9 || x.used != 1 {
		t.Fatalf("Get(0) = %d with %d keys after overwrite, want 9 with 1", got, x.used)
	}
	x.Del(0)
	if got := x.Get(0); got != 0 {
		t.Fatalf("Get(0) = %d after delete, want 0", got)
	}
	x.Del(0) // deleting an absent key is a no-op
	if x.used != 0 {
		t.Fatalf("used = %d, want 0", x.used)
	}
}
