package telemetry

// sampler.go turns the registry's cumulative metrics into time series
// (package docs, "Windowed time series"): each tick appends one window per
// metric to a bounded ring — counters as deltas with a rate and an EWMA,
// gauges as sampled values, histograms as count/sum plus quantiles of the
// interval's bucket deltas — stamped on the wall clock, so a run can be asked
// "what happened over the last 30 seconds". Every tick also captures runtime
// health, the drift detector's baseline for separating switch-side change
// from controller-side load.

import (
	"encoding/json"
	"io"
	"maps"
	"math"
	"runtime"
	"sync"
	"time"
)

const (
	// DefaultSampleInterval is Start's wall-clock tick period.
	DefaultSampleInterval = time.Second
	// seriesWindows is the per-metric ring capacity: at the default
	// interval, two minutes of history.
	seriesWindows = 120
	// ewmaAlpha is the rate-smoothing factor (weight of the newest window).
	ewmaAlpha = 0.3
)

// SamplerOptions configures NewSampler.
type SamplerOptions struct {
	// Interval is the wall period of Start's loop; Tick may additionally be
	// driven by hand. Zero means DefaultSampleInterval.
	Interval time.Duration
}

// CounterPoint is one counter window: the delta accumulated over the
// interval, its rate, and the smoothed rate.
type CounterPoint struct {
	Wall  time.Time     `json:"wall"`
	Dur   time.Duration `json:"dur_ns"`
	Delta int64         `json:"delta"`
	Total int64         `json:"total"`
	Rate  float64       `json:"rate_per_s"`
	EWMA  float64       `json:"ewma_per_s"`
}

// GaugePoint is one sampled gauge value.
type GaugePoint struct {
	Wall  time.Time `json:"wall"`
	Value int64     `json:"value"`
}

// HistogramPoint is one histogram window: observations and mass accumulated
// over the interval, with quantiles interpolated from the interval's bucket
// deltas (not the lifetime distribution).
type HistogramPoint struct {
	Wall  time.Time     `json:"wall"`
	Dur   time.Duration `json:"dur_ns"`
	Count int64         `json:"count"`
	Sum   float64       `json:"sum"`
	Mean  float64       `json:"mean"`
	P50   float64       `json:"p50"`
	P90   float64       `json:"p90"`
	P99   float64       `json:"p99"`
	Rate  float64       `json:"rate_per_s"`
	EWMA  float64       `json:"ewma_per_s"`
}

// RuntimePoint is one runtime-health sample.
type RuntimePoint struct {
	Wall         time.Time     `json:"wall"`
	HeapAlloc    uint64        `json:"heap_alloc_bytes"`
	HeapObjects  uint64        `json:"heap_objects"`
	Goroutines   int           `json:"goroutines"`
	NumGC        uint32        `json:"num_gc"`
	GCPauseTotal time.Duration `json:"gc_pause_total_ns"`
	GCPauseDelta time.Duration `json:"gc_pause_delta_ns"`
}

// ring is a bounded append-only window buffer: the sampler's series and the
// flight recorder's tracks. push never allocates.
type ring[T any] struct {
	buf  []T
	next int
	full bool
}

func newRing[T any](capacity int) ring[T] { return ring[T]{buf: make([]T, capacity)} }

func (r *ring[T]) push(v T) {
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
	if r.next == 0 {
		r.full = true
	}
}

// ordered returns the retained points, oldest first.
func (r *ring[T]) ordered() []T {
	if !r.full {
		return append([]T(nil), r.buf[:r.next]...)
	}
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

type counterSeries struct {
	prev int64
	ewma float64
	ring ring[CounterPoint]
}

type gaugeSeries struct{ ring ring[GaugePoint] }

type histSeries struct {
	prevCount  int64
	prevSum    float64
	prevBucket []int64
	ewma       float64
	ring       ring[HistogramPoint]
}

// Sampler drives windowed aggregation over one registry. All methods are
// safe for concurrent use; a nil *Sampler is a no-op end to end.
type Sampler struct {
	reg  *Registry
	opts SamplerOptions

	mu       sync.Mutex
	counters map[string]*counterSeries
	gauges   map[string]*gaugeSeries
	hists    map[string]*histSeries
	runtime  ring[RuntimePoint]
	prevGC   time.Duration
	lastWall time.Time
	ticks    int64

	startMu sync.Mutex
	stop    chan struct{}
	done    chan struct{}
}

// NewSampler returns a sampler over reg. It takes no measurements until
// Start or Tick is called.
func NewSampler(reg *Registry, opts SamplerOptions) *Sampler {
	if opts.Interval <= 0 {
		opts.Interval = DefaultSampleInterval
	}
	return &Sampler{
		reg:      reg,
		opts:     opts,
		counters: map[string]*counterSeries{},
		gauges:   map[string]*gaugeSeries{},
		hists:    map[string]*histSeries{},
		runtime:  newRing[RuntimePoint](seriesWindows),
	}
}

// Start launches the periodic snapshot loop on the configured interval.
// Calling Start on a running (or nil) sampler is a no-op.
func (s *Sampler) Start() {
	if s == nil {
		return
	}
	s.startMu.Lock()
	defer s.startMu.Unlock()
	if s.stop != nil {
		return
	}
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go func(stop, done chan struct{}) {
		defer close(done)
		t := time.NewTicker(s.opts.Interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.Tick()
			case <-stop:
				return
			}
		}
	}(s.stop, s.done)
}

// Stop halts the loop started by Start and waits for it to exit. Safe on a
// nil or never-started sampler.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	s.startMu.Lock()
	defer s.startMu.Unlock()
	if s.stop == nil {
		return
	}
	close(s.stop)
	<-s.done
	s.stop, s.done = nil, nil
}

// Tick takes one interval snapshot immediately. It is the loop body of
// Start, exported so tests can drive windows by hand.
func (s *Sampler) Tick() {
	if s == nil {
		return
	}
	wall := time.Now()

	// Copy the handle tables under the registry lock, then read the atomics
	// outside it.
	var (
		cs map[string]*Counter
		gs map[string]*Gauge
		hs map[string]*Histogram
	)
	if s.reg != nil {
		s.reg.mu.Lock()
		cs, gs, hs = maps.Clone(s.reg.counters), maps.Clone(s.reg.gauges), maps.Clone(s.reg.hists)
		s.reg.mu.Unlock()
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	goroutines := runtime.NumGoroutine()

	s.mu.Lock()
	defer s.mu.Unlock()
	first := s.ticks == 0
	dur := wall.Sub(s.lastWall)
	s.lastWall = wall
	s.ticks++
	secs := dur.Seconds()

	for name, c := range cs {
		ser := s.counters[name]
		if ser == nil {
			ser = &counterSeries{ring: newRing[CounterPoint](seriesWindows)}
			s.counters[name] = ser
		}
		total := c.Value()
		delta := total - ser.prev
		ser.prev = total
		if first {
			// The first tick only establishes the baseline: there is no
			// interval yet for a delta to cover.
			continue
		}
		rate := 0.0
		if secs > 0 {
			rate = float64(delta) / secs
		}
		ser.ewma = ewmaAlpha*rate + (1-ewmaAlpha)*ser.ewma
		ser.ring.push(CounterPoint{
			Wall: wall, Dur: dur,
			Delta: delta, Total: total, Rate: rate, EWMA: ser.ewma,
		})
	}
	for name, g := range gs {
		ser := s.gauges[name]
		if ser == nil {
			ser = &gaugeSeries{newRing[GaugePoint](seriesWindows)}
			s.gauges[name] = ser
		}
		ser.ring.push(GaugePoint{Wall: wall, Value: g.Value()})
	}
	for name, h := range hs {
		ser := s.hists[name]
		if ser == nil {
			ser = &histSeries{prevBucket: make([]int64, len(h.buckets)), ring: newRing[HistogramPoint](seriesWindows)}
			s.hists[name] = ser
		}
		count := h.count.Load()
		sum := math.Float64frombits(h.sum.Load())
		dCount := count - ser.prevCount
		dSum := sum - ser.prevSum
		deltas := make([]int64, len(h.buckets))
		for i := range h.buckets {
			cur := h.buckets[i].Load()
			deltas[i] = cur - ser.prevBucket[i]
			ser.prevBucket[i] = cur
		}
		ser.prevCount, ser.prevSum = count, sum
		if first {
			continue
		}
		pt := HistogramPoint{
			Wall: wall, Dur: dur,
			Count: dCount, Sum: dSum,
		}
		if dCount > 0 {
			pt.Mean = dSum / float64(dCount)
			pt.P50 = h.bucketQuantile(deltas, dCount, 50)
			pt.P90 = h.bucketQuantile(deltas, dCount, 90)
			pt.P99 = h.bucketQuantile(deltas, dCount, 99)
		}
		if secs > 0 {
			pt.Rate = float64(dCount) / secs
		}
		ser.ewma = ewmaAlpha*pt.Rate + (1-ewmaAlpha)*ser.ewma
		pt.EWMA = ser.ewma
		ser.ring.push(pt)
	}

	gcPause := time.Duration(ms.PauseTotalNs)
	rp := RuntimePoint{
		Wall: wall, HeapAlloc: ms.HeapAlloc, HeapObjects: ms.HeapObjects,
		Goroutines: goroutines, NumGC: ms.NumGC,
		GCPauseTotal: gcPause, GCPauseDelta: gcPause - s.prevGC,
	}
	if first {
		rp.GCPauseDelta = 0
	}
	s.prevGC = gcPause
	s.runtime.push(rp)
}

// SeriesSnapshot is the exportable view of every windowed series, oldest
// point first.
type SeriesSnapshot struct {
	TakenAt    time.Time                   `json:"taken_at"`
	Interval   time.Duration               `json:"interval_ns"`
	Ticks      int64                       `json:"ticks"`
	Counters   map[string][]CounterPoint   `json:"counters"`
	Gauges     map[string][]GaugePoint     `json:"gauges"`
	Histograms map[string][]HistogramPoint `json:"histograms"`
	Runtime    []RuntimePoint              `json:"runtime"`
}

// Series returns a copy of every retained window. A nil sampler yields an
// empty (but non-nil) snapshot.
func (s *Sampler) Series() *SeriesSnapshot {
	out := &SeriesSnapshot{
		TakenAt:    time.Now(),
		Counters:   map[string][]CounterPoint{},
		Gauges:     map[string][]GaugePoint{},
		Histograms: map[string][]HistogramPoint{},
	}
	if s == nil {
		return out
	}
	out.Interval = s.opts.Interval
	s.mu.Lock()
	defer s.mu.Unlock()
	out.Ticks = s.ticks
	for n, ser := range s.counters {
		if pts := ser.ring.ordered(); len(pts) > 0 {
			out.Counters[n] = pts
		}
	}
	for n, ser := range s.gauges {
		if pts := ser.ring.ordered(); len(pts) > 0 {
			out.Gauges[n] = pts
		}
	}
	for n, ser := range s.hists {
		if pts := ser.ring.ordered(); len(pts) > 0 {
			out.Histograms[n] = pts
		}
	}
	out.Runtime = s.runtime.ordered()
	return out
}

// WriteJSON writes the series snapshot as indented JSON.
func (s *Sampler) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.Series())
}
