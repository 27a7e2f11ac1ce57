// Package workload generates synthetic data-plane traffic traces. The
// paper's utilization challenge (§1) is that whether a rule sits in TCAM
// "can have a significant impact on its throughput, and therefore quality
// of service" — which rules those are depends on the switch's caching
// policy and the traffic's popularity distribution. This package supplies
// the traffic side: Zipf-skewed flow popularity, the canonical model for
// network flow size distributions, plus uniform and scan traces as
// contrast.
package workload

import (
	"fmt"
	"math/rand"
)

// Kind selects a trace shape.
type Kind int

// Trace shapes.
const (
	// KindZipf draws flows from a Zipf popularity distribution — few
	// elephants, many mice.
	KindZipf Kind = iota
	// KindUniform draws flows uniformly.
	KindUniform
	// KindScan cycles through all flows round-robin — the adversarial
	// pattern for LRU-style caches.
	KindScan
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindZipf:
		return "zipf"
	case KindUniform:
		return "uniform"
	default:
		return "scan"
	}
}

// Options parameterises Generate.
type Options struct {
	Kind Kind
	// Flows is the flow population size.
	Flows int
	// Packets is the trace length.
	Packets int
	// Skew is the Zipf s parameter (>1); ignored for other kinds.
	// Zero means 1.2.
	Skew float64
	// Seed drives the RNG.
	Seed int64
}

// Generate produces a packet trace: a sequence of flow IDs in arrival
// order. It panics on non-positive Flows/Packets, which indicate broken
// experiment setup.
func Generate(opts Options) []uint32 {
	if opts.Flows <= 0 || opts.Packets <= 0 {
		panic(fmt.Sprintf("workload: bad options %+v", opts))
	}
	if opts.Skew == 0 {
		opts.Skew = 1.2
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	out := make([]uint32, opts.Packets)
	switch opts.Kind {
	case KindZipf:
		z := rand.NewZipf(rng, opts.Skew, 1, uint64(opts.Flows-1))
		for i := range out {
			out[i] = uint32(z.Uint64())
		}
	case KindUniform:
		for i := range out {
			out[i] = uint32(rng.Intn(opts.Flows))
		}
	case KindScan:
		for i := range out {
			out[i] = uint32(i % opts.Flows)
		}
	}
	return out
}
