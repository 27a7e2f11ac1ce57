// Package telemetry is the repository's dependency-free metrics and tracing
// toolkit. It exists because Tango's whole premise is measurement — the
// controller infers switch properties from rule-installation latencies and
// RTT distributions — yet without this package the reproduction could not
// observe its own behaviour: how many probes an inference spent, how
// scheduler batches overlapped in virtual time, or where a slow run burned
// its budget.
//
// # Dual clocks
//
// The repository runs on two clocks: experiments and benchmarks advance a
// virtual clock (internal/simclock) so emulated switch latencies cost no
// wall time, while the TCP path measures real time. Telemetry understands
// both. Every trace span carries a virtual timestamp and duration (the
// timeline Perfetto renders) plus the wall-clock instant it was recorded
// (kept in the span's args), so a scheduler run that finished in
// milliseconds of wall time can still be inspected on its simulated
// multi-second timeline.
//
// # Metrics
//
// A Registry owns named Counters, Gauges and Histograms. Handles are looked
// up once at construction time and then recorded through directly:
//
//	reg := telemetry.NewRegistry()
//	probes := reg.Counter("probe.probes_sent")
//	rtt := reg.Histogram("probe.rtt_ns")
//	...
//	probes.Add(1)
//	rtt.Observe(float64(d))
//
// The record path is an atomic fast path with no allocation, cheap enough
// for the switch emulator's per-packet pipeline. Every handle type is
// nil-safe: a nil *Registry returns nil handles and every method on a nil
// handle (or nil *Tracer) is a no-op, so instrumented code carries
// zero conditional clutter and, with telemetry disabled, costs only a nil
// check.
//
// # Quantile error bound
//
// A Histogram keeps fixed bucket counters and nothing else; its p50/p90/p99
// — in a lifetime Snapshot and in every Sampler window alike — come from the
// one estimator, bucketQuantile: find the bucket holding the sample of rank
// ⌈q·n⌉, interpolate linearly inside it, clamp to the observed min/max. The
// estimate and that sample share a bucket, so the error is at most one
// bucket ratio at every count, from the first observation to the billionth.
// DefBuckets is a uniform log scale, ten per decade over 1µs–100s, so the
// default bound is 10^0.1 ≈ 1.26× (caller-chosen bounds: their own width;
// outside the scale the clamp alone applies). Raw samples are the flight
// recorder's job, not the histogram's.
//
// # Labeled vectors
//
// Vec[M] — CounterVec, GaugeVec and HistogramVec are its three instances —
// is a one-label metric family ("switch", "profile"): With(value) returns
// the child metric, registering it on first use under the canonical name
// family{key="value"} (ChildName), so children appear in snapshots, the
// sampler, and the HTTP exporter exactly like plain metrics. The child table
// is copy-on-write behind an atomic pointer: the hit path is one atomic load
// plus a map lookup — no lock, no allocation — so labeled recording matches
// the unlabeled cost; a writer (first use of a new label value) takes a
// mutex, copies the table and publishes the new map.
//
// # Windowed time series
//
// A Sampler turns the registry's cumulative metrics into a bounded ring of
// interval windows: per-counter deltas, rates and EWMA-smoothed rates,
// per-histogram window quantiles (from bucket deltas between ticks), and
// runtime health (heap, GC pause, goroutines). Each window is stamped on
// the wall clock. Series() returns the retained windows; the HTTP exporter
// serves them at /metrics/series.
//
// # Flight recorder
//
// A FlightRecorder keeps one bounded ring of raw probe RTT samples per
// switch (FlightTrack), each sample carrying both clocks, the flow ID, the
// punted flag, and a per-track sequence number that reveals drops. It is the
// raw-sample companion to the probe.rtt_ns histograms, exported as JSON
// Lines (WriteJSONL, /flight). SetDefaultFlight installs the process-wide
// default the probe engine binds per-switch tracks from.
//
// # Tracing
//
// A Tracer records spans ("probe.round", "sched.batch", "switch.flowmod",
// "infer.size", …) and instant events on named tracks and exports them as
// Chrome trace_event JSON via WriteTrace, loadable in about:tracing or
// https://ui.perfetto.dev. Tracks map to trace threads, so each switch in a
// scheduling run renders as its own swim lane. A tracer keeps at most
// DefaultSpanLimit events; a trace that lost some to the cap says how many
// in its "otherData": {"dropped_events": N}.
//
// # Process-wide default
//
// Deeply nested code (the experiment drivers construct their own switches
// and engines) binds to the process-wide default registry and tracer when
// none is injected explicitly. SetDefault, called by a command's main before
// any instrumented object is built, therefore lights up the entire pipeline;
// when it is never called the defaults stay nil and everything remains a
// no-op. This is how `tangobench -metrics-out` and `tangosched -trace-out`
// capture metrics from the unmodified experiment drivers.
//
// # Exporters
//
//   - Registry.WriteJSON / Registry.WriteFile: one JSON snapshot of every
//     metric.
//   - Tracer.WriteTrace / Tracer.WriteFile: Chrome trace_event JSON.
//   - Sampler.WriteJSON: the windowed time series.
//   - FlightRecorder.WriteJSONL / WriteFile: raw RTT samples, JSON Lines.
//   - HandlerFor: the HTTP surface — /metrics, /metrics/series, /trace,
//     /flight and /debug/pprof — served by every command's -telemetry flag
//     (the shared CLI flag block in cli.go).
package telemetry
