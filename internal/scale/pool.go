package scale

import "tango/internal/packet"

// pool.go applies the switchsim arena/slab discipline (PR 8) to decoded
// frames: each shard owns one framePool, so Get/Put never contend, and the
// frames themselves come from append-only slabs — stable addresses, no
// per-frame allocation after warm-up. Sites draw their scratch frames from
// their shard's pool and build them once at setup; steady-state event
// processing then retargets the frame in place to every data-plane and
// probe flow with packet.RetargetProbeFrame and hands it to SendFrameN, so
// the hot loop is allocation-free end to end.

// poolSlabSize is the frame-slab allocation unit.
const poolSlabSize = 64

// framePool hands out decoded-frame records from slabs with a free list.
// It is single-goroutine (per shard) by design.
type framePool struct {
	slab []packet.Frame
	used int
	free []*packet.Frame
}

// Get returns a zeroed frame, reusing a freed one when available.
func (p *framePool) Get() *packet.Frame {
	if n := len(p.free); n > 0 {
		f := p.free[n-1]
		p.free = p.free[:n-1]
		*f = packet.Frame{}
		return f
	}
	if p.used == len(p.slab) {
		p.slab = make([]packet.Frame, poolSlabSize)
		p.used = 0
	}
	f := &p.slab[p.used]
	p.used++
	return f
}

// Put recycles a frame for the next Get.
func (p *framePool) Put(f *packet.Frame) {
	p.free = append(p.free, f)
}
