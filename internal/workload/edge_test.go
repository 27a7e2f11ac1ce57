package workload

import "testing"

// TestGenerateEdgeCases is the table-driven boundary sweep for Generate:
// every kind must behave at the degenerate corners the scenario runners can
// reach (single-flow populations, one-packet traces).
func TestGenerateEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		len  int
	}{
		{"zipf-single-flow", Options{Kind: KindZipf, Flows: 1, Packets: 100, Seed: 3}, 100},
		{"uniform-single-flow", Options{Kind: KindUniform, Flows: 1, Packets: 100, Seed: 3}, 100},
		{"scan-single-flow", Options{Kind: KindScan, Flows: 1, Packets: 100}, 100},
		{"zipf-single-packet", Options{Kind: KindZipf, Flows: 64, Packets: 1, Seed: 3}, 1},
		{"scan-more-flows-than-packets", Options{Kind: KindScan, Flows: 100, Packets: 5}, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			trace := Generate(tc.opts)
			if len(trace) != tc.len {
				t.Fatalf("len = %d, want %d", len(trace), tc.len)
			}
			for i, f := range trace {
				if int(f) >= tc.opts.Flows {
					t.Fatalf("packet %d references flow %d of %d", i, f, tc.opts.Flows)
				}
			}
			if tc.opts.Flows == 1 {
				for i, f := range trace {
					if f != 0 {
						t.Fatalf("single-flow trace emits flow %d at %d", f, i)
					}
				}
			}
		})
	}
}

func TestGeneratePanicsOnBadPackets(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero packets")
		}
	}()
	Generate(Options{Flows: 10, Packets: 0})
}

// TestPopularityEdgeCases pins Popularity at its boundaries: empty traces,
// out-of-range flow IDs (dropped, not panicking), and zero-flow tallies.
func TestPopularityEdgeCases(t *testing.T) {
	cases := []struct {
		name  string
		trace []uint32
		flows int
		want  []int
	}{
		{"zero-length-trace", nil, 3, []int{0, 0, 0}},
		{"empty-slice-trace", []uint32{}, 2, []int{0, 0}},
		{"single-flow-trace", []uint32{0, 0, 0}, 1, []int{3}},
		{"out-of-range-ids-dropped", []uint32{0, 5, 1, 99}, 2, []int{1, 1}},
		{"zero-flows", []uint32{1, 2}, 0, []int{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := popularity(tc.trace, tc.flows)
			if len(got) != len(tc.want) {
				t.Fatalf("len = %d, want %d", len(got), len(tc.want))
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("counts = %v, want %v", got, tc.want)
				}
			}
		})
	}
}

// TestTopShareEdgeCases pins TopShare at its boundaries — in particular
// k larger than the flow population, which must clamp rather than read out
// of range.
func TestTopShareEdgeCases(t *testing.T) {
	cases := []struct {
		name  string
		trace []uint32
		flows int
		k     int
		want  float64
	}{
		{"k-exceeds-flows", []uint32{0, 1, 0, 1}, 2, 10, 1.0},
		{"k-equals-flows", []uint32{0, 1, 2}, 3, 3, 1.0},
		{"zero-length-trace", nil, 4, 2, 0},
		{"zero-k", []uint32{0, 1}, 2, 0, 0},
		{"negative-k", []uint32{0, 1}, 2, -1, 0},
		{"single-flow-trace", []uint32{0, 0, 0, 0}, 1, 1, 1.0},
		{"top-1-of-skewed", []uint32{0, 0, 0, 1}, 2, 1, 0.75},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := topShare(tc.trace, tc.flows, tc.k); got != tc.want {
				t.Fatalf("TopShare = %v, want %v", got, tc.want)
			}
		})
	}
}
