package telemetry

// The overhead guarantees the instrumented hot paths rely on: recording into
// a live counter/gauge/histogram allocates nothing, and the disabled (nil
// handle) path costs only a nil check. Run with -benchmem; the alloc
// invariants are also enforced as plain tests so `go test` catches
// regressions without benchmarking.

import (
	"testing"
	"time"
)

func TestRecordingIsAllocationFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	if n := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		g.Set(42)
		h.Observe(3.5e5)
	}); n != 0 {
		t.Fatalf("live record path allocates %v objects per op, want 0", n)
	}
}

func TestNilRecordingIsAllocationFree(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	var tr *Tracer
	if n := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		g.Set(42)
		h.Observe(3.5e5)
		tr.Record("s", "", time.Time{}, 0, nil)
	}); n != 0 {
		t.Fatalf("nil no-op path allocates %v objects per op, want 0", n)
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	c := NewRegistry().Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkCounterAddParallel(b *testing.B) {
	c := NewRegistry().Counter("c")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Add(1)
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("h")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) * 1e4)
	}
}

func BenchmarkGaugeSet(b *testing.B) {
	g := NewRegistry().Gauge("g")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Set(int64(i))
	}
}

func BenchmarkNilCounterAdd(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkNilHistogramObserve(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i))
	}
}

func BenchmarkNilTracerSpan(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Record("s", "", time.Time{}, 0, nil)
	}
}
