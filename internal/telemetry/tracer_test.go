package telemetry

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"tango/internal/simclock"
)

func TestTracerRecordAndExport(t *testing.T) {
	clk := simclock.NewVirtual()
	tr := NewTracer(clk.Now)

	// A span on the main track, recorded with explicit virtual timestamps.
	tr.Record("switch.flowmod", "", simclock.Epoch.Add(10*time.Millisecond), 5*time.Millisecond,
		map[string]any{"command": "ADD"})
	// A span on a named track.
	tr.Record("sched.batch", "s1", clk.Now(), 20*time.Millisecond, map[string]any{"ops": 3})
	clk.Sleep(20 * time.Millisecond)
	tr.Instant("ofconn.accept", "", map[string]any{"remote": "127.0.0.1:1"})

	events := tr.Events()
	if len(events) != 3 {
		t.Fatalf("events = %d, want 3", len(events))
	}
	if events[1].Name != "sched.batch" || events[1].Track != "s1" || events[1].VirtDur != 20*time.Millisecond {
		t.Fatalf("span = %+v", events[1])
	}
	if events[1].Wall.IsZero() {
		t.Fatal("span missing wall timestamp")
	}
	if events[2].Phase != 'i' {
		t.Fatalf("instant phase = %q", events[2].Phase)
	}

	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    float64        `json:"ts"`
			Dur   float64        `json:"dur"`
			TID   int            `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if out.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", out.DisplayTimeUnit)
	}
	byName := map[string]int{}
	threadNames := map[int]string{}
	for i, ev := range out.TraceEvents {
		byName[ev.Name] = i
		if ev.Name == "thread_name" {
			threadNames[ev.TID] = ev.Args["name"].(string)
		}
	}
	fm := out.TraceEvents[byName["switch.flowmod"]]
	if fm.Phase != "X" || fm.Dur != 5000 { // µs
		t.Fatalf("flowmod event = %+v", fm)
	}
	// Earliest event (virtual epoch, the sched.batch start) rebases to 0;
	// the flowmod starts 10ms later.
	if fm.TS != 10000 {
		t.Fatalf("flowmod ts = %g µs, want 10000", fm.TS)
	}
	if fm.Args["wall"] == nil || fm.Args["command"] != "ADD" {
		t.Fatalf("flowmod args = %+v", fm.Args)
	}
	batch := out.TraceEvents[byName["sched.batch"]]
	if threadNames[batch.TID] != "s1" {
		t.Fatalf("batch on thread %q, want s1 (threads=%v)", threadNames[batch.TID], threadNames)
	}
	if inst := out.TraceEvents[byName["ofconn.accept"]]; inst.Phase != "i" {
		t.Fatalf("instant = %+v", inst)
	}
}

// TestTracerLimit: a trace the cap truncated says how many events it lost,
// in the format's metadata slot; an untruncated one carries no such key.
func TestTracerLimit(t *testing.T) {
	otherData := func(tr *Tracer) map[string]int64 {
		t.Helper()
		var buf bytes.Buffer
		if err := tr.WriteTrace(&buf); err != nil {
			t.Fatal(err)
		}
		var out struct {
			OtherData map[string]int64 `json:"otherData"`
		}
		if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		return out.OtherData
	}
	tr := NewTracer(nil)
	tr.limit = 2
	tr.Instant("e", "", nil)
	if got := otherData(tr); got != nil {
		t.Fatalf("untruncated trace carries otherData %v", got)
	}
	for i := 0; i < 4; i++ {
		tr.Instant("e", "", nil)
	}
	if len(tr.Events()) != 2 {
		t.Fatalf("events = %d, want 2", len(tr.Events()))
	}
	if got := otherData(tr)["dropped_events"]; got != 3 {
		t.Fatalf("dropped_events = %d, want 3", got)
	}
}

func TestHTTPHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(1)
	tr := NewTracer(nil)
	tr.Instant("e", "", nil)
	srv := httptest.NewServer(HandlerFor(HandlerOptions{Registry: r, Tracer: tr}))
	defer srv.Close()

	for _, path := range []string{"/metrics", "/trace", "/"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["c"] != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if resp, err := http.Get(srv.URL + "/nope"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path: %v %v", resp.StatusCode, err)
	}
}
