package declwalk

import "testing"

func TestSetsTestOnly(t *testing.T) {
	if o := (Options{TestOnly: 1}).withDefaults(); o.Default != 1 {
		t.Fatal(o)
	}
	if CalledByTests() != 1 {
		t.Fatal("CalledByTests")
	}
}
