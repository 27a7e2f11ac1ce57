package ofconn

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"tango/internal/core/infer"
	"tango/internal/core/pattern"
	"tango/internal/core/probe"
	"tango/internal/parallel"
)

// Fleet manages a controller's OpenFlow connections to a set of switches
// and probes each of them into a shared Tango score database — the
// controller-side assembly of Figure 4: Probing Engine feeding the Score
// Database feeding the Network Scheduler. All methods are safe for
// concurrent use; the continuous-inference service (internal/fleet) mutates
// membership while probes are in flight.
type Fleet struct {
	mu      sync.Mutex
	members map[string]*Controller
	// names caches the sorted member-name slice; nil means dirty. Every
	// mutation (Connect/Close) invalidates it, so repeated Names/ProbeAll
	// calls on a stable fleet sort once, not per call.
	names []string
}

// NewFleet returns an empty fleet.
func NewFleet() *Fleet {
	return &Fleet{members: map[string]*Controller{}}
}

// Connect dials a switch and adds it under the given name, replacing (and
// closing) any previous member with that name.
func (f *Fleet) Connect(name, addr string) error {
	return f.ConnectOptions(name, addr, ControllerOptions{})
}

// ConnectOptions is Connect with explicit controller options (reply
// timeout, async window, telemetry bindings) — the fleet service uses it to
// tune in-flight depth per member.
func (f *Fleet) ConnectOptions(name, addr string, opts ControllerOptions) error {
	c, err := DialOptions(addr, opts)
	if err != nil {
		return fmt.Errorf("ofconn: fleet connect %s: %w", name, err)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if old, ok := f.members[name]; ok {
		old.Close()
	}
	f.members[name] = c
	f.names = nil
	return nil
}

// Controller returns the named member.
func (f *Fleet) Controller(name string) (*Controller, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.members[name]
	return c, ok
}

// Names returns member names, sorted. The returned slice is shared between
// callers and must not be mutated; membership changes produce a fresh
// slice, so a held snapshot stays internally consistent.
func (f *Fleet) Names() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.namesLocked()
}

func (f *Fleet) namesLocked() []string {
	if f.names == nil {
		f.names = make([]string, 0, len(f.members))
		for n := range f.members {
			f.names = append(f.names, n)
		}
		sort.Strings(f.names)
	}
	return f.names
}

// Len returns the member count.
func (f *Fleet) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.members)
}

// Engines returns one probing engine per member, keyed by name — the map
// the scheduler's EngineExecutor consumes.
func (f *Fleet) Engines() map[string]*probe.Engine {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]*probe.Engine, len(f.members))
	for n, c := range f.members {
		e := probe.NewEngine(c)
		// The member name is the switch's identity here, so per-switch RTT
		// telemetry keys on it rather than on the controller's own dpid-…
		// label, which it overrides.
		e.SetLabel(n)
		out[n] = e
	}
	return out
}

// ProbeAll fits a control-channel score card for every member and stores
// them in db under the member names. Members are probed concurrently on a
// bounded worker pool (GOMAXPROCS wide) — each probe only loads its own
// switch, and the pool keeps a large fleet from dialing up one goroutine
// per member. The aggregated error lists member failures in sorted member
// order, deterministically; match individual causes with errors.Is/As.
func (f *Fleet) ProbeAll(db *pattern.DB, opts infer.CostOptions) error {
	return f.ProbeAllN(db, opts, 0)
}

// ProbeAllN is ProbeAll with an explicit worker bound (0 = GOMAXPROCS,
// 1 = serial).
func (f *Fleet) ProbeAllN(db *pattern.DB, opts infer.CostOptions, workers int) error {
	// Snapshot membership; members removed concurrently are skipped (their
	// slot stays nil), members added concurrently are not probed.
	f.mu.Lock()
	names := append([]string(nil), f.namesLocked()...)
	ctrls := make([]*Controller, len(names))
	for i, n := range names {
		ctrls[i] = f.members[n]
	}
	f.mu.Unlock()

	// One slot per member: workers write disjoint indexes, and the join
	// below reads them in sorted member order, so the aggregate error is
	// identical at any worker count.
	errs := make([]error, len(names))
	parallel.ForEach(len(names), workers, func(i int) {
		c := ctrls[i]
		if c == nil {
			return
		}
		e := probe.NewEngine(c)
		e.SetLabel(names[i])
		card, err := infer.MeasureCosts(e, names[i], opts)
		if err != nil {
			errs[i] = fmt.Errorf("ofconn: probing %s: %w", names[i], err)
			return
		}
		db.PutScore(card)
	})
	var all []error
	for _, err := range errs {
		if err != nil {
			all = append(all, err)
		}
	}
	return errors.Join(all...)
}

// Close tears down every connection.
func (f *Fleet) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, c := range f.members {
		c.Close()
	}
	f.members = map[string]*Controller{}
	f.names = nil
}
