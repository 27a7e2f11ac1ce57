package switchsim

import (
	"testing"
	"time"

	"tango/internal/simclock"
)

func TestCustomPolicyStringAndEqual(t *testing.T) {
	da, fdrc := PolicyDestAggregate(), PolicyFDRC(0)
	if got := da.String(); got != "dest-aggregate(/28)" {
		t.Errorf("dest-aggregate String() = %q", got)
	}
	if got := fdrc.String(); got != "fdrc(window=4096)" {
		t.Errorf("fdrc String() = %q", got)
	}
	if got := PolicyFDRC(128).String(); got != "fdrc(window=128)" {
		t.Errorf("fdrc(128) String() = %q", got)
	}
	if !da.Equal(PolicyDestAggregate()) {
		t.Error("dest-aggregate not Equal to itself")
	}
	if da.Equal(fdrc) || fdrc.Equal(da) {
		t.Error("distinct custom policies compare Equal")
	}
	if da.Equal(PolicyLRU) || PolicyLRU.Equal(da) {
		t.Error("custom policy compares Equal to a LEX policy")
	}
	if !PolicyFDRC(64).Equal(PolicyFDRC(64)) {
		t.Error("same-window fdrc not Equal")
	}
	if PolicyFDRC(64).Equal(PolicyFDRC(128)) {
		t.Error("different-window fdrc compares Equal")
	}
}

// TestDestAggregateGroupShielding pins the aggregation behaviour that makes
// the policy non-LEX: traffic on ONE member of a destination /28 group
// protects every member, so a never-touched flow survives eviction purely
// through its neighbour's score.
func TestDestAggregateGroupShielding(t *testing.T) {
	s := New(TestSwitch(2, PolicyDestAggregate()))
	// Flows 0 and 1 share a destination /28; flow 16 is one group over.
	addFlow(t, s, 0, 100)
	addFlow(t, s, 1, 100)
	if !s.InTCAM(ptrMatch(0), 100) || !s.InTCAM(ptrMatch(1), 100) {
		t.Fatal("initial residents not in TCAM")
	}
	// Only flow 0 carries traffic; its group's score covers flow 1 too.
	for i := 0; i < 5; i++ {
		sendProbe(t, s, 0)
	}
	// A newcomer from a zero-score group cannot displace either member.
	addFlow(t, s, 16, 100)
	if s.InTCAM(ptrMatch(16), 100) {
		t.Fatal("zero-score group admitted over a scored group")
	}
	if !s.InTCAM(ptrMatch(1), 100) {
		t.Fatal("group score failed to shield the untouched member")
	}
	// Once the newcomer's group out-scores the residents', it promotes — and
	// the victim is the residents' group's youngest member (tie on score,
	// insertSeq breaks toward keeping the older).
	for i := 0; i < 10; i++ {
		sendProbe(t, s, 16)
	}
	if !s.InTCAM(ptrMatch(16), 100) {
		t.Fatal("high-score group member not promoted")
	}
	if !s.InTCAM(ptrMatch(0), 100) || s.InTCAM(ptrMatch(1), 100) {
		t.Fatal("eviction removed the wrong member of the losing group")
	}
}

// TestFDRCDecaysStaleTraffic pins the epoch decay that distinguishes FDRC
// from LFU: lifetime totals are worthless two epochs after the flow goes
// idle, so a recently-active small flow beats a historically-heavy idle one.
func TestFDRCDecaysStaleTraffic(t *testing.T) {
	s := New(TestSwitch(2, PolicyFDRC(4)))
	addFlow(t, s, 0, 100)
	addFlow(t, s, 1, 100)
	// Flow 0 is briefly an elephant (8 packets = 2 full epochs) ...
	for i := 0; i < 8; i++ {
		sendProbe(t, s, 0)
	}
	// ... then goes idle while flow 1 carries the next 2 epochs, aging flow
	// 0's history out of the scoring window.
	for i := 0; i < 8; i++ {
		sendProbe(t, s, 1)
	}
	// A brand-new zero-score flow now beats flow 0's decayed score on the
	// recency tie-break and takes its slot. Under LFU (lifetime totals) flow
	// 0 would win 8 packets to 0.
	addFlow(t, s, 2, 100)
	if !s.InTCAM(ptrMatch(2), 100) {
		t.Fatal("fresh flow not admitted over decayed elephant")
	}
	if s.InTCAM(ptrMatch(0), 100) {
		t.Fatal("decayed elephant survived eviction (LFU behaviour, not FDRC)")
	}
	if !s.InTCAM(ptrMatch(1), 100) {
		t.Fatal("recent-epoch elephant evicted")
	}
}

// TestCustomPolicyResetRebuildsState pins that Reset discards scoring state
// along with the tables: post-reset behaviour matches a fresh switch.
func TestCustomPolicyResetRebuildsState(t *testing.T) {
	s := New(TestSwitch(2, PolicyDestAggregate()))
	addFlow(t, s, 0, 100)
	for i := 0; i < 50; i++ {
		sendProbe(t, s, 0)
	}
	s.Reset()
	// If the old group scores survived reset, flow 16's group (score 0)
	// would lose admission contests it should win by insertion order.
	addFlow(t, s, 16, 100)
	addFlow(t, s, 17, 100)
	if !s.InTCAM(ptrMatch(16), 100) || !s.InTCAM(ptrMatch(17), 100) {
		t.Fatal("fresh flows not resident after Reset")
	}
}

// TestCustomPolicyExpiryReleasesState pins that timeout expiry routes
// through onRemove: an expired group member takes its traffic with it.
func TestCustomPolicyExpiryReleasesState(t *testing.T) {
	clk := simclock.NewVirtual()
	s := New(TestSwitch(2, PolicyDestAggregate()), WithClock(clk))
	addTimedFlow(t, s, 0, 0, 1)
	for i := 0; i < 5; i++ {
		sendProbe(t, s, 0)
	}
	clk.Sleep(2 * time.Second) // past the 1s hard timeout
	s.ExpireNow()
	checkIndexes(t, s) // score == Σ live members' traffic: nothing is left of flow 0's
	// Flow 16 is one group over; flow 1, installed after it, shares flow 0's
	// /28. With flow 0's five packets gone both groups score zero and the
	// younger flow 1 is the next victim; a score that outlived flow 0 would
	// shield flow 1 and cost flow 16 its slot instead.
	addFlow(t, s, 16, 100)
	addFlow(t, s, 1, 100)
	addFlow(t, s, 32, 100)
	sendProbe(t, s, 32) // scores 1: promotes over the zero-score residents
	if !s.InTCAM(ptrMatch(32), 100) {
		t.Fatal("scored flow not promoted over zero-score groups")
	}
	if !s.InTCAM(ptrMatch(16), 100) || s.InTCAM(ptrMatch(1), 100) {
		t.Fatal("expired flow's traffic still shields its group")
	}
	checkIndexes(t, s)
}
