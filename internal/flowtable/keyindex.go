package flowtable

// keyindex.go is the exact-match index: an open-addressing hash table from
// packed match words (ExactKey — both IPv4 endpoints in one uint64) to a
// value. The table keys its exact-rule chains by it, and the switch
// emulator's dest-aggregate policy its destination groups. It replaced
// map[uint64] indexes that dominated classification profiles
// (runtime.mapaccess1_fast64): a probe here is a handful of inlined integer
// operations over two flat slices, with no hash-seed indirection and no
// bucket pointer chase.
//
// Layout and invariants:
//
//   - power-of-two capacity, linear probing;
//   - a zero value means an empty slot, so key 0 is representable and needs
//     no special casing; callers never store the zero value;
//   - deletion is tombstone-free: the hole is healed by backward-shifting
//     the probe chain (the classic Robin-Hood deletion), so lookup cost
//     never degrades with churn the way tombstone schemes do.
//
// The index grows at 3/4 load. Pre-sized for a switch's whole table
// hierarchy, it never grows mid-experiment.

// KeyIndex maps exact-match keys to non-zero values of type V. The zero
// KeyIndex is empty and ready to use.
type KeyIndex[V comparable] struct {
	keys []uint64
	vals []V
	used int
}

// hashKey mixes the packed match word. Probe workloads use adjacent IPv4
// addresses, so the low bits of raw keys collide catastrophically under
// masking; the murmur3 finalizer spreads every input bit across the word.
func hashKey(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

// init sizes the index for about n resident keys, rounding capacity to the
// next power of two that keeps load under 3/4.
func (x *KeyIndex[V]) init(n int) {
	capacity := 8
	for capacity*3 < n*4 {
		capacity *= 2
	}
	x.keys = make([]uint64, capacity)
	x.vals = make([]V, capacity)
	x.used = 0
}

// reset empties the index in place, keeping capacity.
func (x *KeyIndex[V]) reset() {
	clear(x.keys)
	clear(x.vals)
	x.used = 0
}

// Get returns the value of key k, or the zero value when k is absent.
func (x *KeyIndex[V]) Get(k uint64) V {
	var zero V
	if len(x.vals) == 0 {
		return zero
	}
	mask := uint64(len(x.vals) - 1)
	for i := hashKey(k) & mask; ; i = (i + 1) & mask {
		if v := x.vals[i]; v == zero || x.keys[i] == k {
			return v
		}
	}
}

// Put maps key k to the non-zero value v, replacing any value k had. It
// probes once: the first empty slot on k's path is where an absent k goes.
func (x *KeyIndex[V]) Put(k uint64, v V) {
	if (x.used+1)*4 > len(x.vals)*3 {
		x.grow()
	}
	var zero V
	mask := uint64(len(x.vals) - 1)
	i := hashKey(k) & mask
	for ; x.vals[i] != zero; i = (i + 1) & mask {
		if x.keys[i] == k {
			x.vals[i] = v
			return
		}
	}
	x.keys[i], x.vals[i] = k, v
	x.used++
}

// Del removes key k, healing the probe chain by backward shift: elements
// displaced past the hole move back into it until a slot that hashes inside
// the remaining gap (or an empty slot) terminates the chain. No tombstones
// are left behind, so heavy same-bucket churn cannot degrade later lookups.
func (x *KeyIndex[V]) Del(k uint64) {
	if len(x.vals) == 0 {
		return
	}
	var zero V
	mask := uint64(len(x.vals) - 1)
	i := hashKey(k) & mask
	for x.keys[i] != k || x.vals[i] == zero {
		if x.vals[i] == zero {
			return // absent
		}
		i = (i + 1) & mask
	}
	x.used--
	for {
		x.keys[i], x.vals[i] = 0, zero
		j := i
		for {
			j = (j + 1) & mask
			if x.vals[j] == zero {
				return
			}
			home := hashKey(x.keys[j]) & mask
			// Move j's element into the hole when its probe path crosses
			// the hole — that is, when its home slot does not sit strictly
			// inside the (i, j] cyclic interval.
			if ((j - home) & mask) >= ((j - i) & mask) {
				x.keys[i], x.vals[i] = x.keys[j], x.vals[j]
				i = j
				break
			}
		}
	}
}

// grow doubles capacity and rehashes every resident key.
func (x *KeyIndex[V]) grow() {
	oldKeys, oldVals := x.keys, x.vals
	capacity := len(x.vals) * 2
	if capacity == 0 {
		capacity = 8
	}
	x.keys = make([]uint64, capacity)
	x.vals = make([]V, capacity)
	var zero V
	mask := uint64(capacity - 1)
	for i, v := range oldVals {
		if v == zero {
			continue
		}
		k := oldKeys[i]
		j := hashKey(k) & mask
		for x.vals[j] != zero {
			j = (j + 1) & mask
		}
		x.keys[j], x.vals[j] = k, v
	}
}
