package telemetry

// vec.go holds the labeled metric families (package docs, "Labeled
// vectors") and the copy-on-write table under them, which the flight
// recorder's tracks share. Handles should still be cached at construction
// where possible; With exists for call sites whose label is only known per
// operation (a fleet worker touching many switches).

import (
	"maps"
	"sync"
	"sync/atomic"
)

// ChildName returns the canonical registry name of a vec child:
// `family{key="value"}`. Exporters and tests use it to address children in
// snapshots.
func ChildName(family, key, value string) string {
	return family + "{" + key + `="` + value + `"}`
}

// cowTable is a get-or-create table of named *M, read through one atomic
// load and grown by copy-on-write.
type cowTable[M any] struct {
	create func(name string) *M // builds a missing entry; called under mu
	mu     sync.Mutex
	m      atomic.Pointer[map[string]*M]
}

// get returns name's entry, creating it on first use. The hit path is
// lock- and allocation-free.
func (t *cowTable[M]) get(name string) *M {
	if e := (*t.m.Load())[name]; e != nil {
		return e
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	old := *t.m.Load()
	if e := old[name]; e != nil {
		return e // lost the race to another creator
	}
	e := t.create(name)
	next := maps.Clone(old)
	next[name] = e
	t.m.Store(&next)
	return e
}

// snapshot returns the current (immutable) table.
func (t *cowTable[M]) snapshot() map[string]*M { return *t.m.Load() }

func newCowTable[M any](create func(name string) *M) *cowTable[M] {
	t := &cowTable[M]{create: create}
	t.m.Store(&map[string]*M{})
	return t
}

// Vec is a family of metrics keyed by one label. A nil *Vec hands out nil
// (no-op) children.
type Vec[M any] struct{ children *cowTable[M] }

// The three families a Registry hands out. Histogram children share the
// bucket boundaries fixed at vec registration.
type (
	CounterVec   = Vec[Counter]
	GaugeVec     = Vec[Gauge]
	HistogramVec = Vec[Histogram]
)

// With returns (registering if needed) the child metric for the label
// value. The hit path is lock- and allocation-free.
func (v *Vec[M]) With(value string) *M {
	if v == nil {
		return nil
	}
	return v.children.get(value)
}

// family returns (registering if needed) the vec name keyed by label key.
// Children register through child — the registry's plain constructor — so
// they show up in snapshots and are shared with any direct
// Counter(ChildName(...)) lookup.
func family[M any](r *Registry, m map[string]*Vec[M], name, key string, child func(name string) *M) *Vec[M] {
	return lookup(r, m, name, func() *Vec[M] {
		return &Vec[M]{newCowTable(func(value string) *M { return child(ChildName(name, key, value)) })}
	})
}

// CounterVec returns (registering if needed) the counter family name keyed
// by label key. The key is fixed by whichever call registers first.
func (r *Registry) CounterVec(name, key string) *CounterVec {
	if r == nil {
		return nil
	}
	return family(r, r.counterVecs, name, key, r.Counter)
}

// GaugeVec returns (registering if needed) the gauge family name keyed by
// label key.
func (r *Registry) GaugeVec(name, key string) *GaugeVec {
	if r == nil {
		return nil
	}
	return family(r, r.gaugeVecs, name, key, r.Gauge)
}

// HistogramVec returns (registering if needed) the histogram family name
// keyed by label key; bounds apply to every child and are fixed by whichever
// call registers first (omitted: DefBuckets).
func (r *Registry) HistogramVec(name, key string, bounds ...float64) *HistogramVec {
	if r == nil {
		return nil
	}
	return family(r, r.histVecs, name, key, func(child string) *Histogram { return r.Histogram(child, bounds...) })
}
