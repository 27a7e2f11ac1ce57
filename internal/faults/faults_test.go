package faults

import (
	"errors"
	"testing"
	"time"

	"tango/internal/core/probe"
	"tango/internal/telemetry"
)

func TestParseSpecRoundTrip(t *testing.T) {
	cases := []struct {
		spec string
		want Config
	}{
		{"", Config{}},
		{"off", Config{}},
		{"drop=0.01", Config{Drop: 0.01}},
		{"drop=0.01,delay=0.05,duplicate=0.01,reorder=0.02,overflow=0.01,seed=7",
			Config{Drop: 0.01, Delay: 0.05, Duplicate: 0.01, Reorder: 0.02, Overflow: 0.01, Seed: 7}},
		{"dup=0.5,reset=0.001", Config{Duplicate: 0.5, Reset: 0.001}},
		{" drop=0.1 , seed=3 ", Config{Drop: 0.1, Seed: 3}},
	}
	for _, c := range cases {
		got, err := ParseSpec(c.spec)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.spec, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", c.spec, got, c.want)
		}
		// String renders a spec ParseSpec accepts back into the same config.
		rt, err := ParseSpec(got.String())
		if err != nil {
			t.Errorf("ParseSpec(String(%q)): %v", c.spec, err)
		} else if rt != got {
			t.Errorf("round trip of %q: %+v != %+v", c.spec, rt, got)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"drop",               // no value
		"drop=x",             // bad rate
		"bogus=0.1",          // unknown kind
		"seed=notanumber",    // bad seed
		"drop=0.8,delay=0.8", // rates sum > 1
		"drop=-0.1",          // negative rate
	} {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) accepted, want error", spec)
		}
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if in != nil || NewInjector(Config{}) != nil {
		t.Fatal("disabled config must yield a nil injector")
	}
	if d := in.Decide(); d.Fire {
		t.Fatal("nil injector fired")
	}
	if in.DropTimeout() != 0 {
		t.Fatal("nil injector leaked state")
	}
	in.SetTelemetry(telemetry.NewRegistry()) // must not panic
}

func TestDecideDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, Drop: 0.1, Delay: 0.2, Duplicate: 0.1, Reorder: 0.1, Overflow: 0.05}
	a, b := NewInjector(cfg), NewInjector(cfg)
	fired := 0
	for i := 0; i < 2000; i++ {
		da, db := a.Decide(), b.Decide()
		if da != db {
			t.Fatalf("draw %d diverged: %+v vs %+v", i, da, db)
		}
		if da.Fire {
			fired++
		}
	}
	// 55% configured rate over 2000 draws: expect roughly 1100 firings.
	if fired < 900 || fired > 1300 {
		t.Fatalf("fired %d/2000, want ≈1100", fired)
	}
}

func TestDecideRespectsRates(t *testing.T) {
	in := NewInjector(Config{Seed: 1, Overflow: 1.0})
	for i := 0; i < 100; i++ {
		d := in.Decide()
		if !d.Fire || d.Kind != KindOverflow {
			t.Fatalf("draw %d: got %+v, want certain overflow", i, d)
		}
	}
}

func TestTelemetryCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	in := NewInjector(Config{Seed: 5, Drop: 0.5, Delay: 0.5})
	in.SetTelemetry(reg)
	const draws = 400
	for i := 0; i < draws; i++ {
		in.Decide()
	}
	snap := reg.Snapshot().Counters
	if snap["faults.injected.total"] != draws {
		t.Fatalf("total = %d, want %d (rates sum to 1)", snap["faults.injected.total"], draws)
	}
	if snap["faults.injected.drop"]+snap["faults.injected.delay"] != draws {
		t.Fatalf("drop %d + delay %d != %d", snap["faults.injected.drop"], snap["faults.injected.delay"], draws)
	}
	if snap["faults.injected.drop"] == 0 || snap["faults.injected.delay"] == 0 {
		t.Fatal("one kind never fired at rate 0.5")
	}
}

func TestErrorTyping(t *testing.T) {
	drop := &Error{Kind: KindDrop, Op: "flowmod"}
	if !drop.Timeout() || !drop.Transient() {
		t.Fatal("drop must be a transient timeout")
	}
	reset := &Error{Kind: KindReset, Op: "probe"}
	if reset.Transient() {
		t.Fatal("reset must not be transient")
	}
	if reset.Timeout() {
		t.Fatal("reset is not a timeout")
	}
	wrapped := &Error{Kind: KindOverflow, Op: "flowmod", Wrapped: errors.New("inner")}
	if !errors.Is(wrapped, ErrInjected) {
		t.Fatal("errors.Is(_, ErrInjected) = false")
	}
	if fe := (*Error)(nil); !errors.As(wrapped, &fe) || fe.Kind != KindOverflow {
		t.Fatalf("errors.As = %v", fe)
	}
	if !probe.Transient(wrapped) {
		t.Fatal("Transient(overflow) = false")
	}
	if probe.Transient(errors.New("organic")) {
		t.Fatal("Transient(organic) = true")
	}
	if probe.Transient(nil) {
		t.Fatal("Transient(nil) = true")
	}
}

func TestDelayShape(t *testing.T) {
	in := NewInjector(Config{Seed: 9, Delay: 1.0, DelayMean: 10 * time.Millisecond, DelayStdDev: time.Millisecond})
	for i := 0; i < 200; i++ {
		d := in.Decide()
		if d.Kind != KindDelay {
			t.Fatalf("draw %d: kind %v", i, d.Kind)
		}
		if d.Delay < time.Millisecond || d.Delay > 20*time.Millisecond {
			t.Fatalf("draw %d: delay %v outside truncated-normal band", i, d.Delay)
		}
	}
}

func TestValidate(t *testing.T) {
	if err := (Config{Drop: 0.5, Delay: 0.6}).Validate(); err == nil {
		t.Fatal("rates summing to 1.1 accepted")
	}
	if err := (Config{Drop: 1.5}).Validate(); err == nil {
		t.Fatal("rate 1.5 accepted")
	}
	if err := (Config{Drop: 0.2, Reset: 0.001}).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}
