package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Add(3)
	c.Add(1)
	if c.Value() != 4 {
		t.Fatalf("counter = %d, want 4", c.Value())
	}
	if r.Counter("x") != c {
		t.Fatal("second lookup returned a different counter")
	}
	g := r.Gauge("y")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Value())
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil metric handles")
	}
	// None of these may panic.
	c.Add(1)
	g.Set(2)
	g.Add(3)
	h.Observe(4)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil metrics must read as zero")
	}
	if got := h.Snapshot(); got.Count != 0 {
		t.Fatalf("nil histogram snapshot = %+v", got)
	}
	snap := r.Snapshot()
	if snap == nil || len(snap.Counters) != 0 {
		t.Fatalf("nil registry snapshot = %+v", snap)
	}

	var tr *Tracer
	tr.Record("a", "", time.Time{}, 0, nil)
	tr.Instant("b", "", nil)
	if tr.Events() != nil {
		t.Fatal("nil tracer must be empty")
	}
	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatalf("nil tracer WriteTrace: %v", err)
	}
}

func TestHistogramSnapshot(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("rtt", 10, 100, 1000)
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Min != 1 || s.Max != 1000 {
		t.Fatalf("min/max = %g/%g", s.Min, s.Max)
	}
	if want := 500.5; math.Abs(s.Mean-want) > 1e-9 {
		t.Fatalf("mean = %g, want %g", s.Mean, want)
	}
	var total int64
	for _, b := range s.Buckets {
		total += b.Count
	}
	if total != 1000 {
		t.Fatalf("bucket counts sum to %d", total)
	}
	// Values equal to a boundary land in that boundary's bucket.
	if s.Buckets[0].LE != 10 || s.Buckets[0].Count != 10 {
		t.Fatalf("first bucket = %+v", s.Buckets[0])
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", 10)
	h.Observe(1e9)
	s := h.Snapshot()
	if len(s.Buckets) != 1 || !math.IsInf(s.Buckets[0].LE, 1) || s.Buckets[0].Count != 1 {
		t.Fatalf("buckets = %+v", s.Buckets)
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("c")
			h := r.Histogram("h")
			for i := 0; i < 1000; i++ {
				c.Add(1)
				h.Observe(float64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("h").Snapshot().Count; got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("probe.flowmods").Add(12)
	r.Gauge("sched.makespan_ns").Set(34)
	r.Histogram("probe.rtt_ns").Observe(5e5)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if snap.Counters["probe.flowmods"] != 12 {
		t.Fatalf("counters = %+v", snap.Counters)
	}
	if snap.Gauges["sched.makespan_ns"] != 34 {
		t.Fatalf("gauges = %+v", snap.Gauges)
	}
	if h := snap.Histograms["probe.rtt_ns"]; h.Count != 1 || h.Sum != 5e5 {
		t.Fatalf("histograms = %+v", snap.Histograms)
	}

	// One sample above the top bound lands in the +Inf bucket, which must
	// not cost the export: the bound travels as "+Inf" and round-trips, in
	// the snapshot and in the sampler's windows alike.
	smp := NewSampler(r, SamplerOptions{})
	smp.Tick()
	r.Histogram("probe.rtt_ns").Observe(2e11)
	smp.Tick()
	buf.Reset()
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON with an overflow sample: %v", err)
	}
	if !strings.Contains(buf.String(), `"le": "+Inf"`) {
		t.Fatalf("overflow bound not spelled \"+Inf\": %s", buf.String())
	}
	snap = Snapshot{}
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	bs := snap.Histograms["probe.rtt_ns"].Buckets
	if len(bs) != 2 || bs[0].LE >= 1e6 || !math.IsInf(bs[1].LE, 1) || bs[1].Count != 1 {
		t.Fatalf("buckets after round trip = %+v", bs)
	}
	buf.Reset()
	if err := smp.WriteJSON(&buf); err != nil {
		t.Fatalf("Sampler.WriteJSON with an overflow sample: %v", err)
	}
	var series SeriesSnapshot
	if err := json.Unmarshal(buf.Bytes(), &series); err != nil {
		t.Fatal(err)
	}
	if w := series.Histograms["probe.rtt_ns"]; len(w) != 1 || w[0].Count != 1 || w[0].P99 <= 1e11 || w[0].P99 > 2e11 {
		t.Fatalf("overflow window = %+v", w)
	}
}

func TestDefaultRegistry(t *testing.T) {
	if Default() != nil || DefaultTracer() != nil {
		t.Fatal("defaults must start nil")
	}
	r := NewRegistry()
	tr := NewTracer(nil)
	SetDefault(r, tr)
	defer SetDefault(nil, nil)
	if Default() != r || DefaultTracer() != tr {
		t.Fatal("SetDefault did not take")
	}
}
