package switchsim

// keyindex.go is the switch's exact-match rule index: an open-addressing
// hash table mapping packed-match-words (flowtable.ExactKey — both IPv4
// endpoints packed into one uint64) to arena handles. It replaces the
// byKey map[uint64]bucket that dominated classifyExact profiles
// (runtime.mapaccess1_fast64): the probe here is a handful of inlined
// integer operations over two flat slices, with no hash-seed indirection,
// no bucket pointer chase, and no interface boxing.
//
// Layout and invariants:
//
//   - power-of-two capacity, linear probing;
//   - slots[i] == 0 means empty (0 is the reserved nil handle), so key 0 is
//     representable and needs no special casing;
//   - deletion is tombstone-free: the hole is healed by backward-shifting
//     the probe chain (the classic Robin-Hood deletion), so lookup cost
//     never degrades with churn the way tombstone schemes do;
//   - several rules sharing one key (the same address pair at other
//     priorities or ports) chain through the arena records' nextKey
//     handles; the table stores only the head.
//
// The table grows at 3/4 load. With the default pre-sizing (the switch's
// whole table hierarchy) growth never happens mid-experiment.

// exactIndex is the open-addressing key → handle table.
type exactIndex struct {
	keys  []uint64
	slots []int32
	used  int
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

// init sizes the table for about n resident keys, rounding capacity to the
// next power of two that keeps load under 3/4.
func (x *exactIndex) init(n int) {
	capacity := 8
	for capacity*3 < n*4 {
		capacity *= 2
	}
	x.keys = make([]uint64, capacity)
	x.slots = make([]int32, capacity)
	x.used = 0
}

// reset empties the table in place, keeping capacity.
func (x *exactIndex) reset() {
	for i := range x.slots {
		x.slots[i] = 0
		x.keys[i] = 0
	}
	x.used = 0
}

// get returns the head handle for key k, or 0 when absent.
func (x *exactIndex) get(k uint64) int32 {
	if len(x.slots) == 0 {
		return 0
	}
	mask := uint64(len(x.slots) - 1)
	for i := hashKey(k) & mask; ; i = (i + 1) & mask {
		h := x.slots[i]
		if h == 0 {
			return 0
		}
		if x.keys[i] == k {
			return h
		}
	}
}

// put inserts key k with head handle h. The key must be absent; callers
// update existing keys with set.
func (x *exactIndex) put(k uint64, h int32) {
	if len(x.slots) == 0 {
		x.init(0)
	} else if (x.used+1)*4 > len(x.slots)*3 {
		x.grow()
	}
	mask := uint64(len(x.slots) - 1)
	i := hashKey(k) & mask
	for x.slots[i] != 0 {
		i = (i + 1) & mask
	}
	x.keys[i], x.slots[i] = k, h
	x.used++
}

// set replaces the head handle of a resident key.
func (x *exactIndex) set(k uint64, h int32) {
	mask := uint64(len(x.slots) - 1)
	for i := hashKey(k) & mask; ; i = (i + 1) & mask {
		if x.slots[i] == 0 {
			return // absent; nothing to update
		}
		if x.keys[i] == k {
			x.slots[i] = h
			return
		}
	}
}

// del removes key k, healing the probe chain by backward shift: elements
// displaced past the hole move back into it until a slot that hashes inside
// the remaining gap (or an empty slot) terminates the chain. No tombstones
// are left behind, so heavy same-bucket churn cannot degrade later lookups.
func (x *exactIndex) del(k uint64) {
	if len(x.slots) == 0 {
		return
	}
	mask := uint64(len(x.slots) - 1)
	i := hashKey(k) & mask
	for {
		if x.slots[i] == 0 {
			return // absent
		}
		if x.keys[i] == k {
			break
		}
		i = (i + 1) & mask
	}
	x.used--
	for {
		x.keys[i], x.slots[i] = 0, 0
		j := i
		for {
			j = (j + 1) & mask
			if x.slots[j] == 0 {
				return
			}
			home := hashKey(x.keys[j]) & mask
			// Move j's element into the hole when its probe path crosses
			// the hole — that is, when its home slot does not sit strictly
			// inside the (i, j] cyclic interval.
			if ((j - home) & mask) >= ((j - i) & mask) {
				x.keys[i], x.slots[i] = x.keys[j], x.slots[j]
				i = j
				break
			}
		}
	}
}

// grow doubles capacity and rehashes every resident key.
func (x *exactIndex) grow() {
	oldKeys, oldSlots := x.keys, x.slots
	capacity := len(x.slots) * 2
	if capacity == 0 {
		capacity = 8
	}
	x.keys = make([]uint64, capacity)
	x.slots = make([]int32, capacity)
	mask := uint64(capacity - 1)
	for i, h := range oldSlots {
		if h == 0 {
			continue
		}
		k := oldKeys[i]
		j := hashKey(k) & mask
		for x.slots[j] != 0 {
			j = (j + 1) & mask
		}
		x.keys[j], x.slots[j] = k, h
	}
}
