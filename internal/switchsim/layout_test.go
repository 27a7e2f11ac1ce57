package switchsim

import (
	"testing"
	"unsafe"

	"tango/internal/structlayout"
)

// TestHotStructLayouts gates the arena's per-entry structs on zero padding
// waste, the two a switch holds one of per rule or per microflow on their
// size, and the slab on filling its pages: the arena's point is bytes and
// cache density — entries per line — so a field added in the wrong place is
// a perf regression even though no benchmark names it.
func TestHotStructLayouts(t *testing.T) {
	if n := unsafe.Sizeof(ruleSlot{}); n > 240 {
		t.Errorf("a rule and its record take %d bytes, more than 240", n)
	}
	// A slab is rounded up to whole pages: it holds as many slots as 64 KiB
	// does, so less than one slot of its allocation goes unused.
	if n, slot := unsafe.Sizeof(slab{}), unsafe.Sizeof(ruleSlot{}); n > 64<<10 || n+slot <= 64<<10 {
		t.Errorf("a slab takes %d bytes, not within one %d-byte slot of 64 KiB", n, slot)
	}
	if n := unsafe.Sizeof(kernelSlot{}); n > 40 {
		t.Errorf("a microflow slot takes %d bytes, more than 40", n)
	}
	for _, v := range []interface{}{
		ruleSlot{},
		entry{},
		kernelSlot{},
		handleHeap{},
		heapItem{},
		destMember{},
		destGroup{},
		fdrcCell{},
	} {
		if err := structlayout.Check(v); err != nil {
			t.Error(err)
		}
	}
}
