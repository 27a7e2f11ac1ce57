package main

import (
	"testing"

	"tango/internal/switchsim"
)

// TestByName checks that every -profile value the flag's help lists
// resolves.
func TestByName(t *testing.T) {
	for _, name := range []string{"ovs", "switch1", "switch2", "switch3", "fig5"} {
		if _, err := switchsim.ProfileByName(name); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := switchsim.ProfileByName("zz"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestPolicyByName(t *testing.T) {
	for _, name := range []string{"fifo", "lru", "lfu", "priority"} {
		p, err := policyByName(name)
		if err != nil || len(p.Keys) == 0 {
			t.Fatalf("%s: %v %v", name, p, err)
		}
	}
	if _, err := policyByName("zz"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}
