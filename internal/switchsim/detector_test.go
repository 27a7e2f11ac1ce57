package switchsim

import "testing"

// detKey builds a flow key with the given source and destination words —
// the same src<<32|dst layout flowtable.FrameKey produces.
func detKey(src, dst uint32) uint64 {
	return uint64(src)<<32 | uint64(dst)
}

func TestDetectorAlarmsOnSequentialScan(t *testing.T) {
	d := NewOverflowDetector()
	// An overflow attacker's fill phase: every packet a never-seen flow,
	// destinations in address order, all missing the fast path.
	for i := uint32(0); i < 256; i++ {
		d.observe(detKey(7, 1000+i), true, PathControl)
	}
	if w := d.Windows(); w != 2 {
		t.Fatalf("windows = %d, want 2", w)
	}
	if a := d.Alarms(); a != 2 {
		t.Fatalf("alarms = %d, want 2 (every window pure sequential scan)", a)
	}
}

func TestDetectorIgnoresShuffledNovelty(t *testing.T) {
	d := NewOverflowDetector()
	// Novelty-heavy but address-shuffled traffic (e.g. a flash crowd over a
	// hashed address space): stride 3 never produces dst adjacency.
	for i := uint32(0); i < 256; i++ {
		d.observe(detKey(7, 1000+3*i), true, PathControl)
	}
	if a := d.Alarms(); a != 0 {
		t.Fatalf("alarms = %d on non-sequential novelty, want 0", a)
	}
	if w := d.Windows(); w != 2 {
		t.Fatalf("windows = %d, want 2", w)
	}
}

func TestDetectorIgnoresRepeatedTraffic(t *testing.T) {
	d := NewOverflowDetector()
	// Steady-state traffic over a tiny working set: almost no novelty.
	for i := 0; i < 256; i++ {
		d.observe(detKey(7, uint32(i%4)), true, PathFast)
	}
	if a := d.Alarms(); a != 0 {
		t.Fatalf("alarms = %d on repeated traffic, want 0", a)
	}
}

func TestDetectorCountsRevisitDemotions(t *testing.T) {
	d := NewOverflowDetector()
	k := detKey(7, 42)
	d.observe(k, true, PathFast) // canary installed, rides the fast path
	d.observe(k, true, PathSlow) // canary evicted: revisit comes back slow
	if r := d.RevisitDemotions(); r != 1 {
		t.Fatalf("revisit demotions = %d, want 1", r)
	}
	// A second slow observation is not a *demotion* — the flow was already
	// known-slow.
	d.observe(k, true, PathSlow)
	if r := d.RevisitDemotions(); r != 1 {
		t.Fatalf("revisit demotions = %d after slow-slow, want 1", r)
	}
	// Promotion back to fast re-arms the signal.
	d.observe(k, true, PathMid)
	d.observe(k, true, PathControl)
	if r := d.RevisitDemotions(); r != 2 {
		t.Fatalf("revisit demotions = %d after re-arm, want 2", r)
	}
}

func TestDetectorNonIPv4FramesNeverNovel(t *testing.T) {
	d := NewOverflowDetector()
	// Unparseable frames fill windows but cannot look like a scan.
	for i := 0; i < 128; i++ {
		d.observe(0, false, PathControl)
	}
	if w, a := d.Windows(), d.Alarms(); w != 1 || a != 0 {
		t.Fatalf("windows/alarms = %d/%d, want 1/0", w, a)
	}
}

// TestDetectorThresholds drives 128-observation windows at each threshold's
// edge: half the window novel and half the novel flows sequential alarm, one
// fewer of either does not.
func TestDetectorThresholds(t *testing.T) {
	d := NewOverflowDetector()
	// window observes n novel sequential flows from base and fills the rest
	// of the window with frames that are never novel.
	window := func(base uint32, n int) {
		for i := 0; i < n; i++ {
			d.observe(detKey(1, base+uint32(i)), true, PathControl)
		}
		for i := n; i < detWindow; i++ {
			d.observe(0, false, PathControl)
		}
	}
	// pairs observes novel flows in adjacent pairs, seq of them sequential.
	pairs := func(base uint32, seq int) {
		for i := 0; i < detWindow/2; i++ {
			d.observe(detKey(1, base+uint32(4*i)), true, PathControl)
			next := base + uint32(4*i) + 1
			if i >= seq {
				next++
			}
			d.observe(detKey(1, next), true, PathControl)
		}
	}
	steps := []struct {
		name  string
		run   func()
		alarm bool
	}{
		{"half novel", func() { window(10000, detWindow/2) }, true},
		{"one short of half novel", func() { window(20000, detWindow/2-1) }, false},
		{"half sequential", func() { pairs(30000, detWindow/2) }, true},
		{"one short of half sequential", func() { pairs(40000, detWindow/2-1) }, false},
	}
	want := 0
	for _, st := range steps {
		st.run()
		if st.alarm {
			want++
		}
		if a := d.Alarms(); a != want {
			t.Fatalf("%s: alarms = %d, want %d", st.name, a, want)
		}
	}
}

// TestDetectorOnSwitchObservesBursts pins the switch-side hook: every
// data-plane send is classified exactly once (a burst counts once, matching
// its single pipeline decision).
func TestDetectorOnSwitchObservesBursts(t *testing.T) {
	d := NewOverflowDetector()
	s := New(TestSwitch(4, PolicyLRU), WithDetector(d))
	addFlow(t, s, 1, 100)
	for i := 0; i < 2*detWindow; i++ {
		sendProbe(t, s, 1)
	}
	if w := d.Windows(); w != 2 {
		t.Fatalf("windows = %d after %d sends, want 2", w, 2*detWindow)
	}
	if a := d.Alarms(); a != 0 {
		t.Fatalf("alarms = %d on single-flow traffic, want 0", a)
	}
}
