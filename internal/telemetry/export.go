package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"time"
)

// Snapshot is a point-in-time copy of every metric in a registry, shaped
// for JSON export.
type Snapshot struct {
	TakenAt    time.Time                    `json:"taken_at"`
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures the registry's current state. A nil registry yields an
// empty (but non-nil) snapshot.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		TakenAt:    time.Now(),
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for n, c := range r.counters {
		s.Counters[n] = c.Value()
	}
	for n, g := range r.gauges {
		s.Gauges[n] = g.Value()
	}
	for n, h := range r.hists {
		s.Histograms[n] = h.Snapshot()
	}
	return s
}

// WriteJSON writes the registry snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WriteFile writes the registry snapshot to path.
func (r *Registry) WriteFile(path string) error {
	return writeFile(path, "metrics snapshot", r.WriteJSON)
}

// writeFile is the one file exporter: it creates path, streams write into
// it, and wraps whichever step failed with the export's name.
func writeFile(path, what string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err == nil {
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("telemetry: %s: %w", what, err)
	}
	return nil
}

// traceEvent is one Chrome trace_event object.
// See the Trace Event Format spec (docs.google.com/document/d/1CvAClvFfyA5R-
// PhYUmn5OOQtYMH4h6I0nSsKchNAySU); the subset emitted here loads in both
// about:tracing and Perfetto.
type traceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"` // microseconds
	Dur   *float64       `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// traceFile is the JSON-object flavour of the trace format. OtherData is the
// format's metadata slot, which viewers ignore.
type traceFile struct {
	TraceEvents     []traceEvent     `json:"traceEvents"`
	DisplayTimeUnit string           `json:"displayTimeUnit"`
	OtherData       map[string]int64 `json:"otherData,omitempty"`
}

// WriteTrace exports the retained events as Chrome trace_event JSON. The
// timeline is virtual time, rebased so the earliest event sits at t=0; each
// event's wall-clock instant rides along in its args. Tracks map to
// trace-viewer threads with their names attached as metadata. A trace the
// span cap truncated says so: "otherData": {"dropped_events": N}.
func (t *Tracer) WriteTrace(w io.Writer) error {
	events := t.Events()
	out := traceFile{TraceEvents: []traceEvent{}, DisplayTimeUnit: "ms"}
	if t != nil {
		t.mu.Lock()
		if t.dropped > 0 {
			out.OtherData = map[string]int64{"dropped_events": t.dropped}
		}
		t.mu.Unlock()
	}

	var base time.Time
	for _, ev := range events {
		if base.IsZero() || ev.Virt.Before(base) {
			base = ev.Virt
		}
	}
	tids := map[string]int{"": 0}
	out.TraceEvents = append(out.TraceEvents,
		traceEvent{Name: "process_name", Phase: "M", PID: 1, Args: map[string]any{"name": "tango"}},
		traceEvent{Name: "thread_name", Phase: "M", PID: 1, TID: 0, Args: map[string]any{"name": "main"}},
	)
	for _, ev := range events {
		tid, ok := tids[ev.Track]
		if !ok {
			tid = len(tids)
			tids[ev.Track] = tid
			out.TraceEvents = append(out.TraceEvents, traceEvent{
				Name: "thread_name", Phase: "M", PID: 1, TID: tid,
				Args: map[string]any{"name": ev.Track},
			})
		}
		args := map[string]any{"wall": ev.Wall.Format(time.RFC3339Nano)}
		for k, v := range ev.Args {
			args[k] = v
		}
		te := traceEvent{
			Name:  ev.Name,
			Cat:   "tango",
			Phase: string(ev.Phase),
			TS:    float64(ev.Virt.Sub(base)) / float64(time.Microsecond),
			PID:   1,
			TID:   tid,
			Args:  args,
		}
		if ev.Phase == 'X' {
			dur := float64(ev.VirtDur) / float64(time.Microsecond)
			te.Dur = &dur
		} else {
			te.Scope = "t"
		}
		out.TraceEvents = append(out.TraceEvents, te)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// WriteFile writes the trace to path.
func (t *Tracer) WriteFile(path string) error {
	return writeFile(path, "trace export", t.WriteTrace)
}

// HandlerOptions selects what HandlerFor serves. Every field may be nil;
// the corresponding endpoint then serves an empty document, so a partially
// configured process still exposes a well-formed surface.
type HandlerOptions struct {
	Registry *Registry
	Tracer   *Tracer
	// Sampler backs /metrics/series with windowed time series.
	Sampler *Sampler
	// Flight backs /flight with the per-switch RTT flight recorder JSONL.
	Flight *FlightRecorder
}

// HandlerFor returns the telemetry HTTP handler: the four documents in the
// route table below (labeled children appear in /metrics under their
// family{key="value"} names), live Go profiles under /debug/pprof/ (the
// exporter is a diagnostics endpoint, and live profiles are half the point
// of having one), and at / a plain-text index of them all.
func HandlerFor(opts HandlerOptions) http.Handler {
	routes := []struct {
		path, ctype, help string
		write             func(io.Writer) error
	}{
		{"/metrics", "application/json", "JSON metrics snapshot", opts.Registry.WriteJSON},
		{"/metrics/series", "application/json", "windowed time series (rates, EWMA, per-window quantiles)", opts.Sampler.WriteJSON},
		{"/trace", "application/json", "Chrome trace_event JSON (open in ui.perfetto.dev)", opts.Tracer.WriteTrace},
		{"/flight", "application/x-ndjson", "per-switch RTT flight recorder (JSON Lines)", opts.Flight.WriteJSONL},
	}
	mux := http.NewServeMux()
	index := "tango telemetry\n"
	for _, rt := range routes {
		mux.HandleFunc(rt.path, func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", rt.ctype)
			if err := rt.write(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
		index += fmt.Sprintf("  %-16s %s\n", rt.path, rt.help)
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	index += "  /debug/pprof/    live Go profiles\n"
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		io.WriteString(w, index)
	})
	return mux
}
