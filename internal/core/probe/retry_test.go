package probe

import (
	"errors"
	"testing"
	"time"

	"tango/internal/openflow"
)

// transientErr is a minimal error carrying the structural Transient marker.
type transientErr struct{ msg string }

func (e transientErr) Error() string   { return e.msg }
func (e transientErr) Transient() bool { return true }

// flakyDevice fails FlowMod and SendProbe transiently for the first
// failures[command-kind] attempts, then succeeds. Its clock advances only
// through Sleep, so deadline behaviour is fully scripted.
type flakyDevice struct {
	failLeft  int  // remaining attempts to fail
	permanent bool // fail with a non-transient error instead

	now      time.Time
	flowMods []openflow.FlowModCommand // every command seen, in order
	probes   int
	slept    time.Duration
}

func (d *flakyDevice) Now() time.Time         { return d.now }
func (d *flakyDevice) Sleep(t time.Duration)  { d.now = d.now.Add(t); d.slept += t }
func (d *flakyDevice) TelemetryLabel() string { return "" }

func (d *flakyDevice) fail() error {
	if d.failLeft <= 0 {
		return nil
	}
	d.failLeft--
	if d.permanent {
		return errors.New("organic failure")
	}
	return transientErr{"injected loss"}
}

func (d *flakyDevice) FlowMod(fm *openflow.FlowMod) error {
	d.flowMods = append(d.flowMods, fm.Command)
	// Scrub deletes are bookkeeping, never faulted.
	if fm.Command == openflow.FlowDeleteStrict {
		return nil
	}
	return d.fail()
}

func (d *flakyDevice) SendProbe(data []byte, inPort uint16) (time.Duration, bool, error) {
	d.probes++
	if err := d.fail(); err != nil {
		return 0, false, err
	}
	return time.Millisecond, false, nil
}

func adds(cmds []openflow.FlowModCommand) int {
	n := 0
	for _, c := range cmds {
		if c == openflow.FlowAdd {
			n++
		}
	}
	return n
}

func TestRetryRecoversAfterTransientFailures(t *testing.T) {
	dev := &flakyDevice{failLeft: 3}
	e := NewEngine(dev)
	e.Retry = Retry{MaxAttempts: 5, Backoff: time.Millisecond}
	if err := e.Install(1, 100); err != nil {
		t.Fatalf("install failed despite budget for 5 attempts: %v", err)
	}
	if got := adds(dev.flowMods); got != 4 {
		t.Fatalf("device saw %d adds, want 4 (3 failures + success)", got)
	}
	// Exponential backoff: 1ms + 2ms + 4ms before attempts 2..4.
	if dev.slept != 7*time.Millisecond {
		t.Fatalf("slept %v, want 7ms of doubling backoff", dev.slept)
	}
}

func TestRetryScrubsBeforeReAdd(t *testing.T) {
	dev := &flakyDevice{failLeft: 2}
	e := NewEngine(dev)
	e.Retry = Retry{MaxAttempts: 3}
	if err := e.Install(1, 100); err != nil {
		t.Fatal(err)
	}
	// Every re-attempted add must be preceded by a strict delete of the
	// same rule, so an ack-lost add cannot leak a duplicate slot.
	want := []openflow.FlowModCommand{
		openflow.FlowAdd,
		openflow.FlowDeleteStrict, openflow.FlowAdd,
		openflow.FlowDeleteStrict, openflow.FlowAdd,
	}
	if len(dev.flowMods) != len(want) {
		t.Fatalf("command sequence %v, want %v", dev.flowMods, want)
	}
	for i, c := range want {
		if dev.flowMods[i] != c {
			t.Fatalf("command sequence %v, want %v", dev.flowMods, want)
		}
	}
}

func TestRetryDeletesAreNotScrubbed(t *testing.T) {
	dev := &flakyDevice{}
	e := NewEngine(dev)
	e.Retry = DefaultRetry
	if err := e.Delete(1, 100); err != nil {
		t.Fatal(err)
	}
	if len(dev.flowMods) != 1 || dev.flowMods[0] != openflow.FlowDeleteStrict {
		t.Fatalf("delete issued commands %v, want a single strict delete", dev.flowMods)
	}
}

func TestRetryExhaustionReturnsTypedError(t *testing.T) {
	dev := &flakyDevice{failLeft: 100}
	e := NewEngine(dev)
	e.Retry = Retry{MaxAttempts: 3}
	err := e.Install(1, 100)
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("got %v, want ErrExhausted", err)
	}
	var ex *ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("error %T does not expose *ExhaustedError", err)
	}
	if ex.Attempts != 3 || ex.Op != "flowmod" {
		t.Fatalf("exhausted after %d attempts on %q, want 3 on flowmod", ex.Attempts, ex.Op)
	}
	if !errors.As(err, new(transientErr)) {
		t.Fatal("exhausted error does not unwrap to the last failure")
	}
}

func TestRetryNonTransientPassesThrough(t *testing.T) {
	dev := &flakyDevice{failLeft: 100, permanent: true}
	e := NewEngine(dev)
	e.Retry = DefaultRetry
	err := e.Install(1, 100)
	if err == nil || errors.Is(err, ErrExhausted) {
		t.Fatalf("got %v, want the organic error untouched", err)
	}
	if got := adds(dev.flowMods); got != 1 {
		t.Fatalf("device saw %d adds, want 1 (no retry of organic failures)", got)
	}
}

func TestRetryDisabledByZeroValue(t *testing.T) {
	dev := &flakyDevice{failLeft: 1}
	e := NewEngine(dev) // zero Retry: single attempt
	if err := e.Install(1, 100); err == nil {
		t.Fatal("zero-value Retry must not retry")
	}
	if got := adds(dev.flowMods); got != 1 {
		t.Fatalf("device saw %d adds, want 1", got)
	}
}

func TestRetryDeadlineCapsAttempts(t *testing.T) {
	dev := &flakyDevice{failLeft: 100}
	e := NewEngine(dev)
	// 10ms backoff against a 15ms deadline: attempt 1, sleep 10ms, attempt
	// 2, then sleep would land past the deadline after 30ms total — but the
	// deadline check runs before the sleep, so attempt 3 happens at 10ms
	// and attempt 4 is cut off at 30ms ≥ 15ms.
	e.Retry = Retry{MaxAttempts: 100, Backoff: 10 * time.Millisecond, Deadline: 15 * time.Millisecond}
	_, _, err := e.Probe(1)
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("got %v, want ErrExhausted from the deadline", err)
	}
	if dev.probes > 5 {
		t.Fatalf("device saw %d probes; deadline failed to cap retries", dev.probes)
	}
}
