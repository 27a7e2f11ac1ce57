package telemetry

// artifacts_test.go pins the shape — JSON key sets, not values — of the four
// documents consumers of the CI artifacts read: the -metrics-out snapshot,
// the /metrics/series windows, the -trace-out Chrome trace and one
// -flight-out line. Bucket boundaries, counts and timestamps are values and
// may move; a key appearing, disappearing or changing nesting is a format
// change and must be deliberate. testdata/artifact_keys.golden was recorded
// on PR 23's parent; on a mismatch the test prints the document to re-record.

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// keyPaths collects every object key under v as a dotted path, array
// elements collapsed to "[]".
func keyPaths(v any, prefix string, out map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		for k, c := range x {
			p := prefix + "." + k
			out[p] = true
			keyPaths(c, p, out)
		}
	case []any:
		for _, c := range x {
			keyPaths(c, prefix+"[]", out)
		}
	}
}

func TestArtifactKeySets(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c").Add(2)
	reg.Gauge("g").Set(3)
	reg.CounterVec("cv", "switch").With("sw1").Add(1)
	h := reg.Histogram("h")
	smp := NewSampler(reg, SamplerOptions{})
	smp.Tick()
	for i := 1; i <= 50; i++ {
		h.Observe(float64(i) * 1e4)
	}
	reg.Counter("c").Add(5)
	smp.Tick()

	tr := NewTracer(nil)
	tr.Record("span", "sw1", time.Now(), time.Millisecond, map[string]any{"k": 1})
	tr.Instant("instant", "", nil)

	fr := NewFlightRecorder(4)
	now := time.Now()
	fr.Track("sw1").Record(now, now, time.Millisecond, 7, true)

	var got []string
	for _, doc := range []struct {
		name  string
		write func(*bytes.Buffer) error
	}{
		{"metrics-out", func(b *bytes.Buffer) error { return reg.WriteJSON(b) }},
		{"metrics/series", func(b *bytes.Buffer) error { return smp.WriteJSON(b) }},
		{"trace-out", func(b *bytes.Buffer) error { return tr.WriteTrace(b) }},
		{"flight-out", func(b *bytes.Buffer) error { return fr.WriteJSONL(b) }},
	} {
		var buf bytes.Buffer
		if err := doc.write(&buf); err != nil {
			t.Fatalf("%s: %v", doc.name, err)
		}
		var v any
		if err := json.Unmarshal(buf.Bytes(), &v); err != nil {
			t.Fatalf("%s is not one JSON document: %v", doc.name, err)
		}
		paths := map[string]bool{}
		keyPaths(v, doc.name, paths)
		for p := range paths {
			got = append(got, p)
		}
	}
	sort.Strings(got)
	doc := strings.Join(got, "\n") + "\n"

	want, err := os.ReadFile("testdata/artifact_keys.golden")
	if err != nil {
		t.Fatal(err)
	}
	if doc != string(want) {
		t.Fatalf("artifact key sets moved; got:\n%s", doc)
	}
}
