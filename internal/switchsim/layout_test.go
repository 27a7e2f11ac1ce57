package switchsim

import (
	"testing"

	"tango/internal/structlayout"
)

// TestHotStructLayouts gates the arena's per-entry structs on zero padding
// waste. The whole point of the flat arena is cache density — entries per
// line — so a field added in the wrong place is a perf regression even
// though no benchmark names it.
func TestHotStructLayouts(t *testing.T) {
	for _, v := range []interface{}{
		entry{},
		kernelEntry{},
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
