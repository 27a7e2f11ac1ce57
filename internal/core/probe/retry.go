package probe

import (
	"errors"
	"fmt"
	"time"
)

// Retry bounds the engine's recovery from transient control-channel
// failures (drops, injected timeouts, spurious overflow errors). The zero
// value disables retry: every operation gets exactly one attempt, matching
// the engine's historical behaviour on a perfect channel.
type Retry struct {
	// MaxAttempts is the total number of attempts per operation, including
	// the first; values <= 1 disable retry.
	MaxAttempts int
	// Backoff is the wait before the first retry, doubling on each
	// subsequent one. It is charged against the device clock (SimDevice
	// advances virtual time; ofconn blocks).
	Backoff time.Duration
	// Deadline caps the total time (on the device clock) one operation may
	// spend retrying; 0 means no deadline.
	Deadline time.Duration
}

func (r Retry) enabled() bool { return r.MaxAttempts > 1 }

// DefaultRetry is a sensible hardening profile for faulty channels: up to
// five attempts with 2ms→32ms exponential backoff, bounded at two seconds
// per operation.
var DefaultRetry = Retry{MaxAttempts: 5, Backoff: 2 * time.Millisecond, Deadline: 2 * time.Second}

// ErrExhausted is the sentinel matched by errors.Is when an operation kept
// failing transiently until its retry budget (attempts or deadline) ran out.
var ErrExhausted = errors.New("probe: retry budget exhausted")

// ExhaustedError carries the detail behind ErrExhausted: which operation
// gave up, after how many attempts, and the last underlying failure.
type ExhaustedError struct {
	Op       string
	Attempts int
	Last     error
}

// Error implements error.
func (e *ExhaustedError) Error() string {
	return fmt.Sprintf("probe: %s gave up after %d attempts: %v", e.Op, e.Attempts, e.Last)
}

// Unwrap exposes the last underlying failure to errors.Is/As.
func (e *ExhaustedError) Unwrap() error { return e.Last }

// Is matches the ErrExhausted sentinel.
func (e *ExhaustedError) Is(target error) bool { return target == ErrExhausted }

// Transient reports whether err marks itself recoverable by retry. The
// convention is structural — any error in the chain exposing
// `Transient() bool` (internal/faults errors, ofconn timeouts) — so this
// package needs no dependency on the injector.
func Transient(err error) bool {
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// retry is the engine's one retry loop. The caller has made the first
// attempt inline and it failed with err — so a closure exists only after a
// failure; retry re-runs attempt while the failure stays transient and the
// Retry policy allows. scrub, when non-nil, runs before each re-attempt to
// restore idempotence (e.g. strict-deleting a possibly-applied add).
// Non-transient errors pass through untouched; an exhausted budget returns
// an *ExhaustedError wrapping the last failure.
func (e *Engine) retry(op string, err error, attempt func() error, scrub func()) error {
	if !e.Retry.enabled() || !Transient(err) {
		return err
	}
	start := e.dev.Now()
	backoff := e.Retry.Backoff
	attempts := 1
	for attempts < e.Retry.MaxAttempts {
		if e.Retry.Deadline > 0 && e.dev.Now().Sub(start) >= e.Retry.Deadline {
			break
		}
		e.dev.Sleep(backoff)
		backoff *= 2
		if scrub != nil {
			scrub()
		}
		e.mRetries.Add(1)
		attempts++
		err = attempt()
		if err == nil || !Transient(err) {
			return err
		}
	}
	e.mExhausted.Add(1)
	return &ExhaustedError{Op: op, Attempts: attempts, Last: err}
}
