package optionwalk

import "testing"

func TestSetsTestOnly(t *testing.T) {
	if o := (Options{TestOnly: 1}).withDefaults(); o.Default != 1 {
		t.Fatal(o)
	}
}
