package main

import (
	"math/rand"
	"time"
)

// The host reference. The reference sandbox shares its cores' caches and
// execution units with other tenants, whose load slows this process by
// anything up to 80%, for seconds or for a quarter of an hour on end: over ten
// runs of the same code the median pass spread (interquartile range over
// median) 17-23%, and no statistic taken inside a run — fastest fifth,
// minimum, CPU time, a 150 s window — spread less than 8%, because the slow
// stretches outlast a run. A register-only loop does not feel that load
// (1%); ordinary Go code — maps, small allocations, pointer chasing in the L2
// — does, all in much the same proportion. So every end-to-end run times a
// fixed piece of ordinary Go code, the reference op, between the workload's
// passes and before its set-ups, and reports its time metrics at the speed of
// a host on which the reference op takes refNominal: scaled by refNominal
// over the run's median reference op. In those ten runs the scaled median
// pass spread 4-10%; in two later sets of ten 2-10%, with the sets' medians
// within 3% of each other. The raw figures are printed beside the scaled
// ones.
//
// The three parts are weighted so that the four gated workloads slow down
// about as much as the reference does (between 0.8 and 1.2 times as much, in
// logarithms): the ring alone feels the neighbours less than they do, the
// map lookups more. The reference op is part of the yardstick: changing it,
// like changing a workload, makes earlier numbers incomparable.

const (
	// refNominal is the reference op's time on the reference sandbox when
	// its neighbours are quiet, so that on that host scaled and raw figures
	// read about the same.
	refNominal = 1500 * time.Microsecond
	// refEvery spaces the reference ops inside a window: about 3% of it.
	refEvery = 50 * time.Millisecond
	// maxRefSamples bounds the preallocated sample buffer.
	maxRefSamples = 1 << 12

	refRing    = 1 << 18 // 4-byte links: a 1 MiB ring, L2-resident
	refSteps   = 1 << 13
	refInserts = 5000
	refKeys    = 1 << 16
	refLookups = 2048
)

type hostRef struct {
	ring    []uint32          // one random cycle through every slot
	table   map[uint64]uint64 // refKeys random keys
	keys    []uint64
	sink    uint64
	last    time.Time
	samples []float64 // seconds per reference op
}

func newHostRef() *hostRef {
	r := &hostRef{
		ring:    make([]uint32, refRing),
		table:   make(map[uint64]uint64, refKeys),
		keys:    make([]uint64, refKeys),
		samples: make([]float64, 0, maxRefSamples),
	}
	rng := rand.New(rand.NewSource(1))
	perm := rng.Perm(refRing)
	for i, p := range perm {
		r.ring[p] = uint32(perm[(i+1)%refRing])
	}
	for i := range r.keys {
		r.keys[i] = rng.Uint64()
		r.table[r.keys[i]] = uint64(i)
	}
	return r
}

// op is the fixed work: a dependent walk through the ring, a map built from
// small allocations and dropped, and lookups scattered over a large map.
func (r *hostRef) op() {
	k := uint32(r.sink) % refRing
	for i := 0; i < refSteps; i++ {
		k = r.ring[k]
	}
	fresh := make(map[int][]byte)
	for i := 0; i < refInserts; i++ {
		fresh[i] = make([]byte, 64+i%200)
	}
	sum := uint64(k) + uint64(len(fresh))
	at := int(r.sink % refKeys)
	for i := 0; i < refLookups; i++ {
		sum += r.table[r.keys[(at+i*7919)%refKeys]]
	}
	r.sink += sum
}

// sample times one reference op.
func (r *hostRef) sample() {
	t0 := time.Now()
	r.op()
	r.last = time.Now()
	if len(r.samples) < cap(r.samples) {
		r.samples = append(r.samples, r.last.Sub(t0).Seconds())
	}
}

// sampleDue times a reference op if the last one is refEvery old.
func (r *hostRef) sampleDue() {
	if time.Since(r.last) >= refEvery {
		r.sample()
	}
}

// slowdown is how much slower than nominal the host ran the reference ops
// of this run; time metrics are divided by it.
func (r *hostRef) slowdown() float64 {
	return median(r.samples) / refNominal.Seconds()
}
