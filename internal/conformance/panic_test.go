package conformance

import (
	"errors"
	"strings"
	"testing"
)

// TestRunContainsSpecPanic is the regression test for the fan-out panic
// fix: a spec whose pipeline panics must surface as a typed SpecPanicError
// on its own result row while every other spec in the pool still completes.
// Before the fix the panic escaped the worker goroutine and crashed the
// whole process.
func TestRunContainsSpecPanic(t *testing.T) {
	specs := GenerateSpecs(4, 99)
	const victim = 2

	orig := runSpec
	runSpec = func(spec Spec, opts Options) Result {
		if spec.Name == specs[victim].Name {
			panic("injected pipeline panic")
		}
		return orig(spec, opts)
	}
	defer func() { runSpec = orig }()

	// Workers > 1 exercises the goroutine pool path, where an uncontained
	// panic is fatal to the process rather than to the test.
	results := Run(specs, Options{Workers: 3})
	if len(results) != len(specs) {
		t.Fatalf("got %d results, want %d", len(results), len(specs))
	}
	for i, res := range results {
		if i == victim {
			if res.Err == nil {
				t.Fatalf("panicking spec %q produced no error", res.Spec.Name)
			}
			if !errors.Is(res.Err, ErrSpecPanic) {
				t.Errorf("panicking spec error = %v, want ErrSpecPanic", res.Err)
			}
			var pe *SpecPanicError
			if !errors.As(res.Err, &pe) {
				t.Fatalf("panicking spec error %T is not *SpecPanicError", res.Err)
			}
			if pe.Value != "injected pipeline panic" {
				t.Errorf("recovered value = %v, want the injected panic", pe.Value)
			}
			if row := res.String(); !strings.Contains(row, "conformance.TestRunContainsSpecPanic.func1(") {
				t.Errorf("panic row does not name the panicking function:\n%s", row)
			}
			if res.FaultTyped {
				t.Error("a panic is an organic failure; FaultTyped must stay false")
			}
			continue
		}
		if res.Err != nil && errors.Is(res.Err, ErrSpecPanic) {
			t.Errorf("healthy spec %q contaminated with panic error: %v", res.Spec.Name, res.Err)
		}
	}
}

// TestRunContainsSpecPanicSerial covers the workers==1 serial loop, which
// routes through the same containment.
func TestRunContainsSpecPanicSerial(t *testing.T) {
	specs := GenerateSpecs(2, 100)

	orig := runSpec
	runSpec = func(spec Spec, opts Options) Result {
		if spec.Name == specs[0].Name {
			panic(errors.New("serial panic"))
		}
		return orig(spec, opts)
	}
	defer func() { runSpec = orig }()

	results := Run(specs, Options{Workers: 1})
	if !errors.Is(results[0].Err, ErrSpecPanic) {
		t.Errorf("serial path: err = %v, want ErrSpecPanic", results[0].Err)
	}
	if results[1].Err != nil && errors.Is(results[1].Err, ErrSpecPanic) {
		t.Errorf("serial path contaminated healthy spec: %v", results[1].Err)
	}
}
