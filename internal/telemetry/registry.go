package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use; a nil *Counter is a no-op, so instrumentation can record through
// handles unconditionally.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instantaneous value. A nil *Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry holds named metrics. Lookups register on first use and return
// the same handle thereafter, so handles act as process-wide accumulation
// points. All methods are safe for concurrent use. A nil *Registry returns
// nil handles, making the zero configuration a no-op end to end.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	// Labeled families (vec.go). Children register into the plain maps
	// above under `family{key="value"}` names, so the maps below only route
	// With lookups.
	counterVecs map[string]*CounterVec
	gaugeVecs   map[string]*GaugeVec
	histVecs    map[string]*HistogramVec
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:    map[string]*Counter{},
		gauges:      map[string]*Gauge{},
		hists:       map[string]*Histogram{},
		counterVecs: map[string]*CounterVec{},
		gaugeVecs:   map[string]*GaugeVec{},
		histVecs:    map[string]*HistogramVec{},
	}
}

// lookup returns m[name], building and storing it on first use, under the
// registry lock: the one get-or-create behind every Registry constructor.
func lookup[M any](r *Registry, m map[string]*M, name string, build func() *M) *M {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := m[name]
	if !ok {
		e = build()
		m[name] = e
	}
	return e
}

// Counter returns (registering if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return lookup(r, r.counters, name, func() *Counter { return new(Counter) })
}

// Gauge returns (registering if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return lookup(r, r.gauges, name, func() *Gauge { return new(Gauge) })
}

// Histogram returns (registering if needed) the named histogram. bounds are
// the upper bucket boundaries; omitted, the duration-oriented DefBuckets
// apply. Boundaries are fixed by whichever call registers the histogram
// first.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	return lookup(r, r.hists, name, func() *Histogram { return newHistogram(bounds) })
}

// metricNames returns the sorted names of one metric family.
func metricNames[M any](m map[string]M) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Process-wide defaults. Instrumented constructors deep inside the
// experiment drivers fall back to these when no registry/tracer is injected
// explicitly; commands install them before building any instrumented object.
// They stay nil unless SetDefault is called, keeping the default
// configuration a no-op.
var (
	defaultRegistry atomic.Pointer[Registry]
	defaultTracer   atomic.Pointer[Tracer]
)

// SetDefault installs the process-wide default registry and tracer. Either
// may be nil. It must be called before instrumented objects are constructed;
// objects built earlier keep their no-op handles.
func SetDefault(r *Registry, t *Tracer) {
	defaultRegistry.Store(r)
	defaultTracer.Store(t)
}

// Default returns the process-wide default registry (nil when unset).
func Default() *Registry { return defaultRegistry.Load() }

// DefaultTracer returns the process-wide default tracer (nil when unset).
func DefaultTracer() *Tracer { return defaultTracer.Load() }
