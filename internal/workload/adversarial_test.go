package workload

import (
	"reflect"
	"testing"
	"time"
)

// TestOverflowAttackGoldenSmall pins the exact schedule for a hand-checkable
// configuration: 2 canaries, a canary revisit every 2 fills, 4 fills, from
// AttackFlowBase. The generator is a pure function, so any diff here is a
// semantic change to the attack, not noise.
func TestOverflowAttackGoldenSmall(t *testing.T) {
	got := OverflowAttack(AttackOptions{Canaries: 2, Step: 2, MaxFills: 4})
	const b = AttackFlowBase
	want := []AttackOp{
		// Canary phase: install and baseline-probe each sentinel.
		{AttackInstall, b}, {AttackProbe, b},
		{AttackInstall, b + 1}, {AttackProbe, b + 1},
		// Fill phase: every fill is installed and timed; after every 2nd
		// fill the next unchecked canary is revisited exactly once.
		{AttackInstall, b + 2}, {AttackProbe, b + 2},
		{AttackInstall, b + 3}, {AttackProbe, b + 3},
		{AttackProbe, b}, // canary 0 checked after 2 fills
		{AttackInstall, b + 4}, {AttackProbe, b + 4},
		{AttackInstall, b + 5}, {AttackProbe, b + 5},
		{AttackProbe, b + 1}, // canary 1 checked after 4 fills
	}
	if AttackFlowBase != 3<<20 {
		t.Fatalf("AttackFlowBase = %d, want 3<<20", AttackFlowBase)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("schedule mismatch:\n got: %v\nwant: %v", got, want)
	}
}

// TestOverflowAttackDefaults pins the default schedule's shape: 16 canaries
// (install+probe), 320 fills (install+probe), and canary revisits capped at
// the canary count even though MaxFills/Step would allow 20.
func TestOverflowAttackDefaults(t *testing.T) {
	ops := OverflowAttack(AttackOptions{})
	if len(ops) != 2*16+2*320+16 {
		t.Fatalf("default schedule length = %d, want %d", len(ops), 2*16+2*320+16)
	}
	opts := AttackOptions{}.WithDefaults()
	if opts.Canaries != 16 || opts.Step != 16 || opts.MaxFills != 320 {
		t.Fatalf("defaults = %+v", opts)
	}
	// Each canary is probed exactly twice across the whole schedule: the
	// baseline probe and the single one-shot revisit. A third probe would
	// refresh recency and shield the canary from LRU eviction, breaking the
	// attack's bracketing logic.
	probes := make(map[uint32]int)
	for _, op := range ops {
		if op.Kind == AttackProbe && op.Flow < AttackFlowBase+uint32(opts.Canaries) {
			probes[op.Flow]++
		}
	}
	for flow, n := range probes {
		if n != 2 {
			t.Errorf("canary %d probed %d times, want exactly 2", flow, n)
		}
	}
	if len(probes) != opts.Canaries {
		t.Errorf("probed %d canaries, want %d", len(probes), opts.Canaries)
	}
}

func TestAttackOpKindString(t *testing.T) {
	if AttackInstall.String() != "install" || AttackProbe.String() != "probe" {
		t.Errorf("kind strings = %q/%q", AttackInstall, AttackProbe)
	}
	if AttackOpKind(99).String() != "attack-op(?)" {
		t.Errorf("unknown kind string = %q", AttackOpKind(99))
	}
}

// TestChurnGoldenSmall pins a full small schedule for seed 9: fixed 500ms
// spacing, flows from the 4-flow population at churnFlowBase, exactly one
// timeout field set per install.
func TestChurnGoldenSmall(t *testing.T) {
	got := Churn(ChurnOptions{Flows: 4, Rate: 2, Duration: 3 * time.Second, Seed: 9})
	const b = churnFlowBase
	want := []ChurnEvent{
		{At: 500 * time.Millisecond, Kind: ChurnTouch, Flow: b + 1},
		{At: 1000 * time.Millisecond, Kind: ChurnInstall, Flow: b + 2, IdleTimeout: 1},
		{At: 1500 * time.Millisecond, Kind: ChurnInstall, Flow: b + 3, IdleTimeout: 3},
		{At: 2000 * time.Millisecond, Kind: ChurnInstall, Flow: b + 1, IdleTimeout: 3},
		{At: 2500 * time.Millisecond, Kind: ChurnTouch, Flow: b + 1},
		{At: 3000 * time.Millisecond, Kind: ChurnInstall, Flow: b + 3, IdleTimeout: 3},
	}
	if churnFlowBase != 5<<20 {
		t.Fatalf("churnFlowBase = %d, want 5<<20", churnFlowBase)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("schedule mismatch:\n got: %v\nwant: %v", got, want)
	}
}

// TestChurnGoldenCounts pins aggregate shape at a realistic rate: event
// count, install/touch split for the default 0.3 touch fraction, and
// determinism across calls.
func TestChurnGoldenCounts(t *testing.T) {
	opts := ChurnOptions{Rate: 100, Duration: 30 * time.Second, Seed: 42}
	evs := Churn(opts)
	installs, touches := 0, 0
	for i, ev := range evs {
		if i > 0 && ev.At <= evs[i-1].At {
			t.Fatalf("events out of order at %d: %v after %v", i, ev.At, evs[i-1].At)
		}
		switch ev.Kind {
		case ChurnInstall:
			installs++
			if (ev.IdleTimeout == 0) == (ev.HardTimeout == 0) {
				t.Fatalf("install %d must set exactly one timeout: %+v", i, ev)
			}
			if to := ev.IdleTimeout + ev.HardTimeout; to < 1 || to > 3 {
				t.Fatalf("install %d timeout %d outside [1,3]", i, to)
			}
		case ChurnTouch:
			touches++
			if ev.IdleTimeout != 0 || ev.HardTimeout != 0 {
				t.Fatalf("touch %d carries timeouts: %+v", i, ev)
			}
		}
		if ev.Flow < 5<<20 || ev.Flow >= 5<<20+128 {
			t.Fatalf("event %d flow %d outside default population", i, ev.Flow)
		}
	}
	if len(evs) != 3000 || installs != 2082 || touches != 918 {
		t.Fatalf("shape = %d events, %d installs, %d touches; want 3000/2082/918",
			len(evs), installs, touches)
	}
	if !reflect.DeepEqual(evs, Churn(opts)) {
		t.Fatal("same-seed schedules differ")
	}
	if reflect.DeepEqual(evs, Churn(ChurnOptions{Rate: 100, Duration: 30 * time.Second, Seed: 43})) {
		t.Fatal("different-seed schedules identical")
	}
}

func TestChurnRateZeroIsNil(t *testing.T) {
	if evs := Churn(ChurnOptions{Rate: 0}); evs != nil {
		t.Fatalf("rate 0 schedule = %v, want nil", evs)
	}
	if evs := Churn(ChurnOptions{Rate: -5}); evs != nil {
		t.Fatalf("negative rate schedule = %v, want nil", evs)
	}
}

func TestChurnKindString(t *testing.T) {
	if ChurnInstall.String() != "install" || ChurnTouch.String() != "touch" {
		t.Errorf("kind strings = %q/%q", ChurnInstall, ChurnTouch)
	}
	if ChurnKind(99).String() != "churn-op(?)" {
		t.Errorf("unknown kind string = %q", ChurnKind(99))
	}
}
