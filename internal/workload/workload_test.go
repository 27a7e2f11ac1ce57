package workload

import (
	"testing"
	"testing/quick"
)

func TestGenerateLengthAndRange(t *testing.T) {
	for _, kind := range []Kind{KindZipf, KindUniform, KindScan} {
		trace := Generate(Options{Kind: kind, Flows: 50, Packets: 1000, Seed: 1})
		if len(trace) != 1000 {
			t.Fatalf("%v: len = %d", kind, len(trace))
		}
		for i, f := range trace {
			if int(f) >= 50 {
				t.Fatalf("%v: packet %d references flow %d", kind, i, f)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Options{Kind: KindZipf, Flows: 100, Packets: 500, Seed: 7})
	b := Generate(Options{Kind: KindZipf, Flows: 100, Packets: 500, Seed: 7})
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different traces")
		}
	}
}

func TestZipfSkewedUniformFlat(t *testing.T) {
	zipf := Generate(Options{Kind: KindZipf, Flows: 1000, Packets: 50000, Skew: 1.2, Seed: 2})
	uni := Generate(Options{Kind: KindUniform, Flows: 1000, Packets: 50000, Seed: 2})
	zs := topShare(zipf, 1000, 100)
	us := topShare(uni, 1000, 100)
	if zs < 0.6 {
		t.Fatalf("zipf top-100 share = %.2f, want heavy skew", zs)
	}
	if us > 0.2 {
		t.Fatalf("uniform top-100 share = %.2f, want ~0.1", us)
	}
}

func TestScanCycles(t *testing.T) {
	trace := Generate(Options{Kind: KindScan, Flows: 4, Packets: 10})
	want := []uint32{0, 1, 2, 3, 0, 1, 2, 3, 0, 1}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("scan trace = %v", trace[:10])
		}
	}
}

func TestPopularitySums(t *testing.T) {
	f := func(seed int64, kindRaw uint8) bool {
		trace := Generate(Options{Kind: Kind(kindRaw % 3), Flows: 64, Packets: 2048, Seed: seed})
		counts := popularity(trace, 64)
		total := 0
		for _, c := range counts {
			total += c
		}
		return total == 2048
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratePanicsOnBadOptions(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero flows")
		}
	}()
	Generate(Options{Flows: 0, Packets: 10})
}

// topShare returns the fraction of packets carried by the k most popular
// flows — a quick skew diagnostic.
func topShare(trace []uint32, flows, k int) float64 {
	if len(trace) == 0 || k <= 0 {
		return 0
	}
	counts := popularity(trace, flows)
	// Partial selection of the k largest counts.
	for i := 0; i < k && i < len(counts); i++ {
		maxAt := i
		for j := i + 1; j < len(counts); j++ {
			if counts[j] > counts[maxAt] {
				maxAt = j
			}
		}
		counts[i], counts[maxAt] = counts[maxAt], counts[i]
	}
	top := 0
	for i := 0; i < k && i < len(counts); i++ {
		top += counts[i]
	}
	return float64(top) / float64(len(trace))
}

// popularity returns each flow's packet count in the trace, indexed by
// flow ID over [0, flows).
func popularity(trace []uint32, flows int) []int {
	counts := make([]int, flows)
	for _, f := range trace {
		if int(f) < flows {
			counts[f]++
		}
	}
	return counts
}
