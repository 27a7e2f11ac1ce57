package flowtable

import (
	"testing"
	"unsafe"

	"tango/internal/structlayout"
)

// TestHotStructLayouts gates the per-rule structs on zero padding waste:
// rules are slab-allocated by the thousands and scanned on every lookup
// miss, so declared field order is part of the performance contract.
func TestHotStructLayouts(t *testing.T) {
	if n := unsafe.Sizeof(Rule{}); n > 184 {
		t.Errorf("a rule takes %d bytes, more than 184", n)
	}
	for _, v := range []interface{}{
		Rule{},
		Match{},
		KeyIndex[*Rule]{},
		Action{},
	} {
		if err := structlayout.Check(v); err != nil {
			t.Error(err)
		}
	}
}
