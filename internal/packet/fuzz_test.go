package packet

import (
	"bytes"
	"testing"
)

// FuzzDecode drives the frame decoder with arbitrary bytes: it must never
// panic, and any frame it accepts must serialize and re-decode to an
// identical wire image (after the canonicalising first re-serialize, which
// recomputes lengths and checksums).
func FuzzDecode(f *testing.F) {
	for _, id := range []uint32{0, 1, 70000} {
		raw, err := BuildProbe(ProbeSpec{FlowID: id, Payload: []byte("seed")})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	e := Ethernet{EtherType: EtherTypeARP}
	f.Add(append(e.AppendTo(nil), 1, 2, 3))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := decode(data)
		if err != nil {
			return
		}
		canon, err := fr.AppendSerialize(nil)
		if err != nil {
			// A decoded frame may fail to serialize only when its layers
			// cannot express what was parsed; our layer set round-trips
			// everything it accepts.
			t.Fatalf("serialize after decode: %v", err)
		}
		fr2, err := decode(canon)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		canon2, err := fr2.AppendSerialize(nil)
		if err != nil {
			t.Fatalf("re-serialize: %v", err)
		}
		if !bytes.Equal(canon, canon2) {
			t.Fatalf("serialization not idempotent:\n first %x\nsecond %x", canon, canon2)
		}
	})
}

// FuzzProbeFrame holds the three ways of minting a probe frame to one answer
// for any flow ID reached from any other: built, retargeted, and decoded from
// the encoding.
func FuzzProbeFrame(f *testing.F) {
	f.Add(uint32(0), uint32(1))
	f.Add(uint32(65536), uint32(65535))
	f.Add(uint32(1<<20), uint32(9<<20))
	f.Add(uint32(1<<32-1), uint32(1<<24-1))
	f.Fuzz(func(t *testing.T, id, prev uint32) {
		for _, proto := range []IPProtocol{IPProtocolTCP, IPProtocolUDP} {
			if msg := probeFrameMismatch(id, prev, proto, nil); msg != "" {
				t.Fatalf("flow %d, proto %d: %s", id, proto, msg)
			}
		}
	})
}
