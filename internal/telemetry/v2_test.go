package telemetry

// v2_test.go covers the time-series layer: labeled vecs, the windowed
// sampler, the flight recorder, bucket quantiles on caller-chosen bounds,
// and the HTTP handler's full route surface (including its error paths).

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestVecChildrenRegisterIntoRegistry(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("hits", "switch")
	if r.CounterVec("hits", "switch") != cv {
		t.Fatal("second vec lookup returned a different family")
	}
	c := cv.With("sw1")
	if cv.With("sw1") != c {
		t.Fatal("second With returned a different child")
	}
	c.Add(3)
	// The child is an ordinary registry metric under its canonical name.
	if got := r.Counter(ChildName("hits", "switch", "sw1")); got != c {
		t.Fatal("child not shared with the plain-name lookup")
	}
	if got := metricNames(cv.children.snapshot()); len(got) != 1 || got[0] != "sw1" {
		t.Fatalf("labels = %v, want [sw1]", got)
	}

	gv := r.GaugeVec("occ", "switch")
	gv.With("sw1").Set(7)
	hv := r.HistogramVec("rtt", "switch", 10, 100)
	hv.With("sw1").Observe(42)
	hv.With("sw2").Observe(5)

	snap := r.Snapshot()
	if snap.Counters[`hits{switch="sw1"}`] != 3 {
		t.Fatalf("counter child missing from snapshot: %v", snap.Counters)
	}
	if snap.Gauges[`occ{switch="sw1"}`] != 7 {
		t.Fatalf("gauge child missing from snapshot: %v", snap.Gauges)
	}
	if hs, ok := snap.Histograms[`rtt{switch="sw2"}`]; !ok || hs.Count != 1 {
		t.Fatalf("histogram child missing from snapshot: %v", snap.Histograms)
	}
}

func TestVecNilSafety(t *testing.T) {
	var r *Registry
	cv := r.CounterVec("c", "k")
	gv := r.GaugeVec("g", "k")
	hv := r.HistogramVec("h", "k")
	if cv != nil || gv != nil || hv != nil {
		t.Fatal("nil registry must hand out nil vecs")
	}
	// Nil vecs hand out nil (no-op) children; none of this may panic.
	cv.With("x").Add(1)
	gv.With("x").Set(2)
	hv.With("x").Observe(3)
}

func TestVecWithHitPathDoesNotAllocate(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("c", "switch")
	hv := r.HistogramVec("h", "switch")
	cv.With("sw1")
	hv.With("sw1")
	tr := NewFlightRecorder(1024).Track("sw1")
	now := time.Now()
	if n := testing.AllocsPerRun(200, func() {
		cv.With("sw1").Add(1)
		hv.With("sw1").Observe(1)
		tr.Record(now, now, time.Millisecond, 7, false)
	}); n != 0 {
		t.Fatalf("labeled record path allocates %v objects/op, want 0", n)
	}
}

func TestVecConcurrentWith(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("c", "switch")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				cv.With(fmt.Sprintf("sw%d", i%10)).Add(1)
			}
		}(g)
	}
	wg.Wait()
	labels := metricNames(cv.children.snapshot())
	if got := len(labels); got != 10 {
		t.Fatalf("labels = %d, want 10", got)
	}
	var total int64
	for _, l := range labels {
		total += cv.With(l).Value()
	}
	if total != 8*200 {
		t.Fatalf("total = %d, want %d", total, 8*200)
	}
}

func TestBucketQuantileLinearBounds(t *testing.T) {
	r := NewRegistry()
	// Uniform 0..9999 on caller-chosen linear bounds: the error bound is the
	// bucket width, whatever the scale.
	h := r.Histogram("wrap", 1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000, 10000)
	const n = 2000
	for i := 0; i < n; i++ {
		h.Observe(float64(i * 10000 / n))
	}
	s := h.Snapshot()
	if s.Count != n {
		t.Fatalf("count = %d", s.Count)
	}
	// Exact percentiles are 5000/9000/9900; bucket interpolation must land
	// within one bucket width (1000).
	for _, tc := range []struct {
		got, want float64
	}{{s.P50, 5000}, {s.P90, 9000}, {s.P99, 9900}} {
		if diff := tc.got - tc.want; diff < -1000 || diff > 1000 {
			t.Fatalf("quantile = %v, want %v ±1000 (snapshot %+v)", tc.got, tc.want, s)
		}
	}
	// Quantiles stay clamped to the observed range even at the extremes.
	if s.P99 > s.Max || s.P50 < s.Min {
		t.Fatalf("quantiles escaped [min,max]: %+v", s)
	}
}

func TestSamplerWindows(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops")
	h := r.Histogram("lat", 10, 100, 1000)
	s := NewSampler(r, SamplerOptions{Interval: time.Second})

	s.Tick() // baseline: records prev state, no windows yet
	base := s.Series().Runtime[0].Wall
	c.Add(10)
	h.Observe(50)
	h.Observe(500)
	before := time.Now()
	s.Tick()
	after := time.Now()

	ss := s.Series()
	if ss.Ticks != 2 {
		t.Fatalf("ticks = %d, want 2", ss.Ticks)
	}
	cp := ss.Counters["ops"]
	if len(cp) != 1 || cp[0].Delta != 10 || cp[0].Total != 10 {
		t.Fatalf("counter windows = %+v", cp)
	}
	if cp[0].Rate <= 0 || cp[0].EWMA <= 0 {
		t.Fatalf("rate/ewma not positive: %+v", cp[0])
	}
	if cp[0].Wall.Before(before) || cp[0].Wall.After(after) || cp[0].Dur != cp[0].Wall.Sub(base) {
		t.Fatalf("window stamp %v over %v, want the tick's wall clock in [%v, %v] since %v", cp[0].Wall, cp[0].Dur, before, after, base)
	}
	hp := ss.Histograms["lat"]
	if len(hp) != 1 || hp[0].Count != 2 {
		t.Fatalf("histogram windows = %+v", hp)
	}
	if hp[0].Mean != 275 {
		t.Fatalf("window mean = %v, want 275", hp[0].Mean)
	}
	if hp[0].P50 < 10 || hp[0].P50 > 1000 {
		t.Fatalf("window p50 = %v out of bucket range", hp[0].P50)
	}
	if len(ss.Runtime) != 2 {
		t.Fatalf("runtime samples = %d, want 2", len(ss.Runtime))
	}
	if ss.Runtime[1].HeapAlloc == 0 || ss.Runtime[1].Goroutines == 0 {
		t.Fatalf("runtime sample empty: %+v", ss.Runtime[1])
	}

	// The ring keeps the last seriesWindows windows.
	for i := 0; i < seriesWindows; i++ {
		c.Add(1)
		s.Tick()
	}
	if got := len(s.Series().Counters["ops"]); got != seriesWindows {
		t.Fatalf("retained windows = %d, want %d", got, seriesWindows)
	}
}

// TestSamplerEWMAConverges checks the smoothing against its definition. The
// windows here are microseconds of wall clock, so the rates themselves are
// whatever the scheduler made them; what is deterministic is the recurrence
// EWMA_i = α·Rate_i + (1−α)·EWMA_{i−1} from a zero seed, and its consequence
// that the last EWMA is a weighted mean of the rates seen — inside [min, max],
// short of full weight only by the seed's (1−α)^n share.
func TestSamplerEWMAConverges(t *testing.T) {
	const alpha, ticks = ewmaAlpha, 12
	r := NewRegistry()
	c := r.Counter("ops")
	s := NewSampler(r, SamplerOptions{Interval: time.Second})
	s.Tick()
	for i := 0; i < ticks; i++ {
		c.Add(100)
		s.Tick()
	}
	pts := s.Series().Counters["ops"]
	if len(pts) != ticks {
		t.Fatalf("%d points after %d ticks", len(pts), ticks)
	}
	prev, lo, hi := 0.0, math.Inf(1), 0.0
	for i, p := range pts {
		if want := alpha*p.Rate + (1-alpha)*prev; math.Abs(p.EWMA-want) > 1e-9*want {
			t.Fatalf("point %d: ewma %v, want %v·%v + %v·%v = %v", i, p.EWMA, alpha, p.Rate, 1-alpha, prev, want)
		}
		prev, lo, hi = p.EWMA, math.Min(lo, p.Rate), math.Max(hi, p.Rate)
	}
	if floor := lo * (1 - math.Pow(1-alpha, ticks)); prev < floor*(1-1e-9) || prev > hi {
		t.Fatalf("last ewma %v outside the rates seen [%v, %v]", prev, floor, hi)
	}
}

func TestSamplerStartStop(t *testing.T) {
	r := NewRegistry()
	s := NewSampler(r, SamplerOptions{Interval: time.Millisecond})
	s.Start()
	s.Start() // idempotent
	deadline := time.After(2 * time.Second)
	for {
		if s.Series().Ticks >= 2 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("sampler loop never ticked")
		case <-time.After(time.Millisecond):
		}
	}
	s.Stop()
	s.Stop() // idempotent
	// Nil sampler: everything is a no-op.
	var ns *Sampler
	ns.Start()
	ns.Tick()
	ns.Stop()
	if got := ns.Series(); got == nil || got.Ticks != 0 {
		t.Fatalf("nil sampler series = %+v", got)
	}
	var buf bytes.Buffer
	if err := ns.WriteJSON(&buf); err != nil {
		t.Fatalf("nil sampler WriteJSON: %v", err)
	}
}

func TestFlightRecorder(t *testing.T) {
	fr := NewFlightRecorder(4)
	tr := fr.Track("sw1")
	if fr.Track("sw1") != tr {
		t.Fatal("second Track returned a different ring")
	}
	base := time.Unix(100, 0)
	for i := 0; i < 6; i++ {
		tr.Record(base.Add(time.Duration(i)*time.Second), base, time.Duration(i)*time.Millisecond, uint32(i), i%2 == 0)
	}
	got := tr.Samples()
	if len(got) != 4 {
		t.Fatalf("samples = %d, want 4 (capacity)", len(got))
	}
	// Oldest retained is seq 3 (two dropped), newest seq 6.
	if got[0].Seq != 3 || got[3].Seq != 6 {
		t.Fatalf("seq range = [%d,%d], want [3,6]", got[0].Seq, got[3].Seq)
	}
	if got[3].RTT != 5*time.Millisecond || got[3].FlowID != 5 {
		t.Fatalf("newest sample = %+v", got[3])
	}

	fr.Track("sw0").Record(base, base, time.Millisecond, 9, false)
	if names := metricNames(fr.tracks.snapshot()); len(names) != 2 || names[0] != "sw0" || names[1] != "sw1" {
		t.Fatalf("tracks = %v", names)
	}

	var buf bytes.Buffer
	if err := fr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var lines []FlightSample
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var s FlightSample
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		lines = append(lines, s)
	}
	if len(lines) != 5 {
		t.Fatalf("JSONL lines = %d, want 5", len(lines))
	}
	// Sorted by track name, oldest first within a track, switch filled in.
	if lines[0].Switch != "sw0" || lines[1].Switch != "sw1" || lines[1].Seq != 3 {
		t.Fatalf("JSONL order wrong: %+v", lines[:2])
	}
}

func TestFlightNilSafety(t *testing.T) {
	var fr *FlightRecorder
	tr := fr.Track("x")
	if tr != nil {
		t.Fatal("nil recorder must hand out nil tracks")
	}
	tr.Record(time.Time{}, time.Time{}, 0, 0, false)
	if tr.Samples() != nil {
		t.Fatal("nil track must read as empty")
	}
	var buf bytes.Buffer
	if err := fr.WriteJSONL(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil recorder WriteJSONL wrote %q, err %v", buf.String(), err)
	}
}

func TestFlightDefault(t *testing.T) {
	old := DefaultFlight()
	defer SetDefaultFlight(old)
	SetDefaultFlight(nil)
	if DefaultFlight() != nil {
		t.Fatal("cleared default flight recorder must be nil")
	}
	fr := NewFlightRecorder(0)
	SetDefaultFlight(fr)
	if DefaultFlight() != fr {
		t.Fatal("default flight recorder not installed")
	}
}

func TestHandlerRoutes(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(1)
	tr := NewTracer(nil)
	s := NewSampler(r, SamplerOptions{})
	s.Tick()
	fr := NewFlightRecorder(8)
	fr.Track("sw1").Record(time.Now(), time.Now(), time.Millisecond, 1, false)
	h := HandlerFor(HandlerOptions{Registry: r, Tracer: tr, Sampler: s, Flight: fr})

	for _, tc := range []struct {
		path string
		want string
	}{
		{"/metrics", `"c": 1`},
		{"/metrics/series", `"ticks"`},
		{"/trace", "traceEvents"},
		{"/flight", `"switch":"sw1"`},
		{"/", "/metrics/series"},
		{"/debug/pprof/cmdline", ""},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", tc.path, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s = %d", tc.path, rec.Code)
		}
		if tc.want != "" && !strings.Contains(rec.Body.String(), tc.want) {
			t.Fatalf("GET %s body %q missing %q", tc.path, rec.Body.String(), tc.want)
		}
	}
}

func TestHandlerErrorPaths(t *testing.T) {
	// Unknown routes 404 instead of falling through to the index.
	h := HandlerFor(HandlerOptions{})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/nope", nil))
	if rec.Code != 404 {
		t.Fatalf("GET /nope = %d, want 404", rec.Code)
	}

	// Every collaborator nil: all routes still serve well-formed (empty)
	// documents rather than panicking.
	for _, path := range []string{"/metrics", "/metrics/series", "/trace", "/flight", "/"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s with nil options = %d", path, rec.Code)
		}
	}

	// Partial wiring: tracer-only and registry-only combinations.
	rec = httptest.NewRecorder()
	HandlerFor(HandlerOptions{Tracer: NewTracer(nil)}).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("tracer-only /metrics = %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	HandlerFor(HandlerOptions{Registry: NewRegistry()}).ServeHTTP(rec, httptest.NewRequest("GET", "/trace", nil))
	if rec.Code != 200 {
		t.Fatalf("registry-only /trace = %d", rec.Code)
	}
}

func TestHandlerSnapshotDuringRecord(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("c", "switch")
	h := HandlerFor(HandlerOptions{Registry: r})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Keep creating fresh children so snapshots race real registry
			// mutations, not just atomic adds.
			cv.With(fmt.Sprintf("sw%d", i%50)).Add(1)
			r.Histogram("lat").Observe(float64(i))
		}
	}()
	for i := 0; i < 50; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		if rec.Code != 200 {
			t.Fatalf("snapshot during record = %d", rec.Code)
		}
		var snap Snapshot
		if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
			t.Fatalf("snapshot not valid JSON under concurrent recording: %v", err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestCLIHelpers(t *testing.T) {
	var c CLI
	if c.Enabled() {
		t.Fatal("zero CLI must be disabled")
	}
	if got := c.OutputPaths(); got != nil {
		t.Fatalf("zero CLI OutputPaths = %v", got)
	}
	flush, err := c.Setup()
	if err != nil || flush == nil {
		t.Fatalf("disabled Setup: flush nil=%v, err=%v", flush == nil, err)
	}
	if err := flush(); err != nil {
		t.Fatalf("disabled flush: %v", err)
	}

	c = CLI{MetricsOut: "m.json", FlightOut: "f.jsonl"}
	if !c.Enabled() {
		t.Fatal("CLI with outputs must be enabled")
	}
	paths := c.OutputPaths()
	if len(paths) != 2 || paths[0][0] != "-metrics-out" || paths[1][1] != "f.jsonl" {
		t.Fatalf("OutputPaths = %v", paths)
	}

	// A bad -telemetry address fails fast at Setup, not at first scrape.
	bad := CLI{Addr: "256.256.256.256:0"}
	if _, err := bad.Setup(); err == nil {
		t.Fatal("Setup with unroutable address must fail")
	}
}

// TestCLIFlushWritesEverySink: one failing sink (an unwritable -metrics-out)
// is reported, and costs neither the other two files nor the listener's
// release.
func TestCLIFlushWritesEverySink(t *testing.T) {
	defer SetDefault(nil, nil)
	defer SetDefaultFlight(nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	dir := t.TempDir()
	blocker := filepath.Join(dir, "blocker") // a regular file: nothing can be created under it
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	c := CLI{
		MetricsOut: filepath.Join(blocker, "metrics.json"),
		TraceOut:   filepath.Join(dir, "trace.json"),
		FlightOut:  filepath.Join(dir, "flight.jsonl"),
		Addr:       addr,
	}
	flush, err := c.Setup()
	if err != nil {
		t.Fatal(err)
	}
	DefaultFlight().Track("sw1").Record(time.Now(), time.Now(), time.Millisecond, 1, false)
	if err := flush(); err == nil || !strings.Contains(err.Error(), "metrics snapshot") {
		t.Fatalf("flush error = %v, want the metrics failure", err)
	}
	for _, p := range []string{c.TraceOut, c.FlightOut} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Fatalf("%s not written after the metrics sink failed: %v", p, err)
		}
	}
	ln, err = net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("-telemetry listener still bound after flush: %v", err)
	}
	ln.Close()
}
