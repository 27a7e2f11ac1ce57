package fleet

import (
	"reflect"
	"testing"
	"time"
)

// fakeTime is an injectable clock whose sleep advances it, so bucket tests
// run instantly and deterministically.
type fakeTime struct{ t time.Time }

func newFakeTime() *fakeTime {
	return &fakeTime{t: time.Date(2014, 12, 2, 0, 0, 0, 0, time.UTC)}
}
func (f *fakeTime) now() time.Time          { return f.t }
func (f *fakeTime) sleep(d time.Duration)   { f.t = f.t.Add(d) }
func (f *fakeTime) advance(d time.Duration) { f.t = f.t.Add(d) }

func TestTokenBucketUnlimited(t *testing.T) {
	b := newTokenBucket(0, 0, nil, nil)
	if b != nil {
		t.Fatal("rate 0 should disable the bucket")
	}
	// nil receivers are no-ops.
	if w := b.admit(); w != 0 {
		t.Fatalf("nil admit waited %v", w)
	}
	b.charge(1e9)
}

func TestTokenBucketSolventAdmitsFree(t *testing.T) {
	ft := newFakeTime()
	b := newTokenBucket(100, 50, ft.now, ft.sleep)
	for i := 0; i < 10; i++ {
		if w := b.admit(); w != 0 {
			t.Fatalf("admit %d waited %v while solvent", i, w)
		}
		b.charge(5) // burst 50 covers 10 charges exactly; balance hits 0
	}
	if b.tokens > 0 {
		t.Fatalf("tokens = %v after spending the burst, want <= 0", b.tokens)
	}
}

func TestTokenBucketOverdraftWaits(t *testing.T) {
	ft := newFakeTime()
	b := newTokenBucket(100, 50, ft.now, ft.sleep) // 100 tokens/sec, starts at 50
	b.charge(150)                                  // overdraft: balance -100
	w := b.admit()
	if want := time.Second; w != want { // 100 tokens deficit at 100/sec
		t.Fatalf("admit waited %v, want %v", w, want)
	}
	if b.tokens < 0 {
		t.Fatalf("still insolvent after admit: %v", b.tokens)
	}
	// Solvent again: next admit is free.
	if w := b.admit(); w != 0 {
		t.Fatalf("second admit waited %v", w)
	}
}

func TestTokenBucketRefillCapsAtBurst(t *testing.T) {
	ft := newFakeTime()
	b := newTokenBucket(1000, 10, ft.now, ft.sleep)
	b.charge(10)
	ft.advance(time.Hour)
	b.refill()
	if b.tokens != 10 {
		t.Fatalf("tokens = %v after a long idle, want burst cap 10", b.tokens)
	}
}

// TestFleetPacingThrottles runs a paced fleet on the fake clock: rounds
// overdraw the per-switch budget, admissions wait, and the throttle ledger
// records it — while inference results stay identical to the unpaced run.
func TestFleetPacingThrottles(t *testing.T) {
	// The bucket holds 4*MaxRules probes; four rounds spend more than that.
	const rounds = 4
	opts := testOptions(9)
	opts.Rounds = rounds
	base, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	ft := newFakeTime()
	o := testOptions(9)
	o.Rounds = rounds
	o.Workers = 1 // the fake clock is not goroutine-safe
	o.ProbeRate = 50
	o.now, o.sleep = ft.now, ft.sleep
	paced, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if paced.Throttles == 0 || paced.ThrottleWait == 0 {
		t.Fatalf("paced run never throttled: %d waits, %v total", paced.Throttles, paced.ThrottleWait)
	}
	if paced.InferErrs != 0 {
		t.Fatalf("pacing broke inference: %d errors", paced.InferErrs)
	}
	want, got := base.Deterministic(), paced.Deterministic()
	want.Workers, got.Workers = 0, 0
	if !reflect.DeepEqual(want, got) {
		t.Fatal("pacing changed deterministic results")
	}
}
