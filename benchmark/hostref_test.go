package main

import "testing"

// The reference op is fixed work: two references do the same thing, and
// doing it leaves the ring and the table as they were.
func TestHostRefIsFixedWork(t *testing.T) {
	a, b := newHostRef(), newHostRef()
	for i := 0; i < 3; i++ {
		a.sample()
		b.sample()
		if a.sink != b.sink {
			t.Fatalf("after %d ops the references disagree: %d and %d", i+1, a.sink, b.sink)
		}
	}
	if len(a.samples) != 3 || len(a.table) != refKeys {
		t.Errorf("%d samples and %d keys after 3 ops, want 3 and %d", len(a.samples), len(a.table), refKeys)
	}
	seen := make([]bool, refRing)
	for k, n := uint32(0), 0; n < refRing; k, n = a.ring[k], n+1 {
		if seen[k] {
			t.Fatalf("the ring closes after %d of %d slots", n, refRing)
		}
		seen[k] = true
	}
}

func TestHostRefSlowdownAndSpacing(t *testing.T) {
	r := &hostRef{samples: []float64{0.003, 0.0031, 0.0029, 0.009, 0.003}}
	if got := r.slowdown(); !near(got, 2) {
		t.Errorf("slowdown of a 3 ms median = %v, want 2 (nominal %v)", got, refNominal)
	}
	r = newHostRef()
	r.sampleDue()
	r.sampleDue() // not due: the first was microseconds ago
	if len(r.samples) != 1 {
		t.Errorf("%d samples after two calls within refEvery, want 1", len(r.samples))
	}
}
