package infer

import (
	"errors"
	"fmt"

	"tango/internal/switchsim"
)

// classify.go holds Algorithm 2 to a hard verdict. ProbePolicy always
// returns its best-effort diagnosis; controllers that must *act* on the
// result (pick an abstraction, admit a switch to a scheduling domain) need
// the opposite contract — a policy either is a complete LEX ordering the
// model can reason about, or the switch is rejected with a typed error. The
// adversarial conformance scenarios hold Model.Policy to it against cache
// policies deliberately built outside the LEX model (custompolicy.go).

// ErrUnclassifiablePolicy is the sentinel wrapped by UnclassifiableError;
// match it with errors.Is.
var ErrUnclassifiablePolicy = errors.New("infer: cache policy outside the LEX model")

// UnclassifiableError reports that policy probing could not settle on a
// complete lexicographic ordering: either no attribute ever correlated with
// cache residency, or the correlation chain stalled after a partial prefix.
type UnclassifiableError struct {
	// Rounds is how many probing rounds ran before giving up.
	Rounds int
	// Partial is the accepted key prefix, empty when probing was
	// inconclusive from the first round.
	Partial switchsim.Policy
}

// Error implements error.
func (e *UnclassifiableError) Error() string {
	if len(e.Partial.Keys) == 0 {
		return fmt.Sprintf("%v (inconclusive after %d rounds)", ErrUnclassifiablePolicy, e.Rounds)
	}
	return fmt.Sprintf("%v (stalled after %d rounds with partial prefix %s)",
		ErrUnclassifiablePolicy, e.Rounds, e.Partial)
}

// Unwrap lets errors.Is(err, ErrUnclassifiablePolicy) match.
func (e *UnclassifiableError) Unwrap() error { return ErrUnclassifiablePolicy }

// Verdict converts ProbePolicy's diagnosis into a verdict: nil when probing
// terminated with every round accepted (a serial attribute closed the
// ordering, or all attributes were consumed), an UnclassifiableError carrying
// the partial prefix otherwise. The per-round correlations of a rejected
// switch stay on the result.
func (r *PolicyResult) Verdict() error {
	if len(r.Rounds) == 0 || r.Inconclusive || !r.Rounds[len(r.Rounds)-1].Accepted {
		return &UnclassifiableError{Rounds: len(r.Rounds), Partial: r.Policy}
	}
	return nil
}
