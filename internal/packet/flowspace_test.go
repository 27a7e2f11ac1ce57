package packet

import "testing"

// TestFlowBlocksAreDisjoint holds the flow-ID layout: every block is
// non-empty, starts and ends on a 2^20 boundary inside FlowSpace, and
// shares no flow with another block at its full length — the reach its
// owner's bound keeps it to.
func TestFlowBlocksAreDisjoint(t *testing.T) {
	for i := range flowBlocks {
		b := FlowBlock(i)
		base, end := uint64(b.Base()), uint64(b.Base())+uint64(b.Len())
		if b.Len() == 0 || base%(1<<20) != 0 || end%(1<<20) != 0 || end > FlowSpace {
			t.Errorf("block %d = [%#x, %#x): want a non-empty run of 2^20-flow units inside [0, %#x)", b, base, end, FlowSpace)
		}
		for o := b + 1; int(o) < len(flowBlocks); o++ {
			if base < uint64(o.Base())+uint64(o.Len()) && uint64(o.Base()) < end {
				t.Errorf("blocks %d [%#x, %#x) and %d [%#x, %#x) overlap",
					b, base, end, o, o.Base(), uint64(o.Base())+uint64(o.Len()))
			}
		}
	}
}

// TestProbeAddrsWrapAtFlowSpace pins what FlowSpace says: IDs FlowSpace apart
// get the same source and destination address, and IDs below it get
// addresses of their own.
func TestProbeAddrsWrapAtFlowSpace(t *testing.T) {
	seen := map[[2]uint32]uint32{}
	for id := uint32(0); id < FlowSpace; id += 4093 {
		for _, wrapped := range []uint32{id + FlowSpace, id + 255*FlowSpace} {
			if ProbeSrcIP(wrapped) != ProbeSrcIP(id) || ProbeDstIP(wrapped) != ProbeDstIP(id) {
				t.Fatalf("flow %#x: %v→%v, but flow %#x: %v→%v",
					id, ProbeSrcIP(id), ProbeDstIP(id), wrapped, ProbeSrcIP(wrapped), ProbeDstIP(wrapped))
			}
		}
		k := [2]uint32{probeIP4(probeBaseSrc, id), probeIP4(probeBaseDst, id)}
		if prev, ok := seen[k]; ok {
			t.Fatalf("flows %#x and %#x share addresses %v→%v", prev, id, ProbeSrcIP(id), ProbeDstIP(id))
		}
		seen[k] = id
	}
	for _, id := range []uint32{1<<16 - 1, 1 << 16, 1<<24 - 1} {
		if ProbeSrcIP(id) == ProbeSrcIP(id-1) || ProbeDstIP(id) == ProbeDstIP(id-1) {
			t.Errorf("flows %#x and %#x share an address", id-1, id)
		}
	}
}
