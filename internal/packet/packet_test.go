package packet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
)

func TestMACRoundTrip(t *testing.T) {
	m := MACFromUint64(0x0200_0000_1234)
	if m != (MAC{0x02, 0, 0, 0, 0x12, 0x34}) {
		t.Fatalf("MACFromUint64 = %v", m[:])
	}
	if got := m.String(); got != "02:00:00:00:12:34" {
		t.Fatalf("String = %q", got)
	}
}

func TestEthernetRoundTrip(t *testing.T) {
	e := Ethernet{
		Dst:       MACFromUint64(1),
		Src:       MACFromUint64(2),
		EtherType: EtherTypeIPv4,
	}
	b := e.AppendTo(nil)
	if len(b) != 14 {
		t.Fatalf("encoded length = %d, want 14", len(b))
	}
	var d Ethernet
	rest, err := d.DecodeFromBytes(append(b, 0xAA))
	if err != nil {
		t.Fatal(err)
	}
	if d != e {
		t.Fatalf("decoded %+v, want %+v", d, e)
	}
	if len(rest) != 1 || rest[0] != 0xAA {
		t.Fatalf("rest = %x", rest)
	}
}

func TestEthernetTruncated(t *testing.T) {
	var d Ethernet
	if _, err := d.DecodeFromBytes(make([]byte, 13)); err == nil {
		t.Fatal("expected error for 13-byte frame")
	}
}

func TestIPv4RoundTrip(t *testing.T) {
	ip := IPv4{
		TOS:      0x10,
		TTL:      63,
		Protocol: IPProtocolTCP,
		Src:      netip.AddrFrom4([4]byte{10, 0, 0, 1}),
		Dst:      netip.AddrFrom4([4]byte{10, 0, 0, 2}),
		ID:       777,
	}
	b, err := ip.AppendTo(nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !validChecksum(b) {
		t.Fatal("checksum invalid")
	}
	var d IPv4
	if _, err := d.DecodeFromBytes(b); err != nil {
		t.Fatal(err)
	}
	if d.Src != ip.Src || d.Dst != ip.Dst || d.Protocol != ip.Protocol ||
		d.TOS != ip.TOS || d.TTL != ip.TTL || d.ID != ip.ID {
		t.Fatalf("decoded %+v, want %+v", d, ip)
	}
	if d.Length != 120 {
		t.Fatalf("Length = %d, want 120", d.Length)
	}
}

func TestIPv4Malformed(t *testing.T) {
	var d IPv4
	if _, err := d.DecodeFromBytes(make([]byte, 10)); err == nil {
		t.Fatal("expected truncation error")
	}
	bad := make([]byte, 20)
	bad[0] = 0x60 // version 6
	if _, err := d.DecodeFromBytes(bad); err == nil {
		t.Fatal("expected version error")
	}
	bad[0] = 0x43 // ihl 3 (<5)
	if _, err := d.DecodeFromBytes(bad); err == nil {
		t.Fatal("expected ihl error")
	}
	bad[0] = 0x4f // ihl 15 => 60 bytes, but only 20 present
	if _, err := d.DecodeFromBytes(bad); err == nil {
		t.Fatal("expected extended-header truncation error")
	}
}

func TestIPv4RequiresV4Addrs(t *testing.T) {
	ip := IPv4{Src: netip.MustParseAddr("::1"), Dst: netip.AddrFrom4([4]byte{1, 2, 3, 4})}
	if _, err := ip.AppendTo(nil, 0); err == nil {
		t.Fatal("expected error for v6 source")
	}
}

func TestTCPRoundTrip(t *testing.T) {
	tc := TCP{SrcPort: 1234, DstPort: 80, Seq: 99, Ack: 100, Flags: 0x18, Window: 4096}
	b := tc.AppendTo(nil)
	if len(b) != 20 {
		t.Fatalf("encoded length = %d, want 20", len(b))
	}
	var d TCP
	rest, err := d.DecodeFromBytes(append(b, 1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if d != tc {
		t.Fatalf("decoded %+v, want %+v", d, tc)
	}
	if len(rest) != 3 {
		t.Fatalf("rest = %x", rest)
	}
}

func TestUDPRoundTrip(t *testing.T) {
	u := UDP{SrcPort: 5353, DstPort: 53}
	b := u.AppendTo(nil, 4)
	var d UDP
	if _, err := d.DecodeFromBytes(append(b, 0xde, 0xad, 0xbe, 0xef)); err != nil {
		t.Fatal(err)
	}
	if d.SrcPort != 5353 || d.DstPort != 53 || d.Length != 12 {
		t.Fatalf("decoded %+v", d)
	}
	bad := u.AppendTo(nil, 0)
	bad[4], bad[5] = 0, 3 // length 3 < 8
	if _, err := d.DecodeFromBytes(bad); err == nil {
		t.Fatal("expected error for short udp length")
	}
}

func TestFrameRoundTripTCP(t *testing.T) {
	raw, err := BuildProbe(ProbeSpec{FlowID: 42, Payload: []byte("tango")})
	if err != nil {
		t.Fatal(err)
	}
	f, err := decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !f.HasIPv4 || !f.HasTCP || f.HasUDP {
		t.Fatalf("layer flags: %+v", f)
	}
	if string(f.Payload) != "tango" {
		t.Fatalf("payload = %q", f.Payload)
	}
	if f.IP.Src != ProbeSrcIP(42) || f.IP.Dst != ProbeDstIP(42) {
		t.Fatalf("addresses: %v -> %v", f.IP.Src, f.IP.Dst)
	}
	re, err := f.AppendSerialize(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re, raw) {
		t.Fatalf("reserialized frame differs:\n got %x\nwant %x", re, raw)
	}
}

func TestFrameRoundTripUDP(t *testing.T) {
	raw, err := BuildProbe(ProbeSpec{FlowID: 7, Proto: IPProtocolUDP})
	if err != nil {
		t.Fatal(err)
	}
	f, err := decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !f.HasUDP || f.HasTCP {
		t.Fatalf("layer flags: %+v", f)
	}
	ft, ok := f.FiveTuple()
	if !ok || ft.Proto != IPProtocolUDP || ft.DstPort != 53 {
		t.Fatalf("five tuple: %+v ok=%v", ft, ok)
	}
}

func TestFrameNonIP(t *testing.T) {
	e := Ethernet{EtherType: EtherTypeARP}
	raw := append(e.AppendTo(nil), 1, 2, 3, 4)
	f, err := decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if f.HasIPv4 {
		t.Fatal("ARP frame decoded as IPv4")
	}
	if _, ok := f.FiveTuple(); ok {
		t.Fatal("non-IP frame has five tuple")
	}
	re, err := f.AppendSerialize(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re, raw) {
		t.Fatalf("reserialized: %x want %x", re, raw)
	}
}

func TestProbeUniqueness(t *testing.T) {
	// Distinct flow IDs must produce distinct five tuples — otherwise
	// inference would conflate flows.
	seen := map[FiveTuple]uint32{}
	for id := uint32(0); id < 5000; id++ {
		raw, err := BuildProbe(ProbeSpec{FlowID: id})
		if err != nil {
			t.Fatal(err)
		}
		f, err := decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		ft, ok := f.FiveTuple()
		if !ok {
			t.Fatal("no five tuple")
		}
		if prev, dup := seen[ft]; dup {
			t.Fatalf("flows %d and %d share a five tuple", prev, id)
		}
		seen[ft] = id
	}
}

func TestProbeIPSpill(t *testing.T) {
	// Past 65536 flows the addresses must keep changing.
	if ProbeSrcIP(1) == ProbeSrcIP(65537) {
		t.Fatal("address space wrapped at 64k flows")
	}
}

// Property: any probe frame round-trips decode→serialize byte-identically.
func TestProbeRoundTripProperty(t *testing.T) {
	f := func(id uint32, udp bool, payload []byte) bool {
		spec := ProbeSpec{FlowID: id % 200000, Payload: payload}
		if udp {
			spec.Proto = IPProtocolUDP
		}
		raw, err := BuildProbe(spec)
		if err != nil {
			return false
		}
		fr, err := decode(raw)
		if err != nil {
			return false
		}
		re, err := fr.AppendSerialize(nil)
		if err != nil {
			return false
		}
		return bytes.Equal(raw, re) && validChecksum(raw[14:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the decoder never panics and never returns a frame on inputs
// shorter than a full Ethernet header.
func TestDecodeRobustness(t *testing.T) {
	f := func(data []byte) bool {
		fr, err := decode(data)
		if len(data) < 14 {
			return err != nil && fr == nil
		}
		return true // any outcome fine, just must not panic
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// probeFrameMismatch mints flow id's frame three ways — BuildProbeFrame,
// RetargetProbeFrame from flow prev's frame, and a decode of AppendBuildProbe's
// bytes in a buffer that held prev's — and describes the first disagreement
// ("" when all three agree). The engine and the conformance background
// drivers send whichever is cheapest, so any divergence would break the
// encode-path/decode-path equivalence the differential gates rely on.
func probeFrameMismatch(id, prev uint32, proto IPProtocol, payload []byte) string {
	spec := ProbeSpec{FlowID: id, Proto: proto, Payload: payload}
	prevSpec := ProbeSpec{FlowID: prev, Proto: proto, Payload: payload}
	var built, walked, decoded Frame
	BuildProbeFrame(&built, spec)
	BuildProbeFrame(&walked, prevSpec)
	RetargetProbeFrame(&walked, id)
	if !reflect.DeepEqual(&built, &walked) {
		return fmt.Sprintf("retargeted from %d: %+v, built: %+v", prev, walked, built)
	}
	var buf [64]byte
	if _, err := AppendBuildProbe(buf[:0], prevSpec); err != nil {
		return err.Error()
	}
	raw, err := AppendBuildProbe(buf[:0], spec)
	if err != nil {
		return err.Error()
	}
	if len(raw) <= len(buf) && &raw[0] != &buf[0] {
		return fmt.Sprintf("a %d-byte frame left the 64-byte buffer", len(raw))
	}
	if err := DecodeInto(&decoded, raw); err != nil {
		return err.Error()
	}
	if len(payload) == 0 {
		// Decode represents an absent payload as an empty non-nil slice.
		decoded.Payload = built.Payload
	}
	if !reflect.DeepEqual(&built, &decoded) {
		return fmt.Sprintf("decoded: %+v, built: %+v", decoded, built)
	}
	return ""
}

// Property: BuildProbeFrame's in-place decoded form is exactly what decoding
// BuildProbe's wire bytes yields, and retargeting any other flow's frame
// lands on it too.
func TestBuildProbeFrameMatchesDecode(t *testing.T) {
	// The IDs where a header field carries into the next byte, the policy
	// and microflow probes' bases, and the ends of the address and ID space.
	ids := []uint32{0, 255, 256, 65535, 65536, 1 << 20, 9 << 20, 1<<24 - 1, 1<<32 - 1}
	for _, proto := range []IPProtocol{IPProtocolTCP, IPProtocolUDP} {
		for _, payload := range [][]byte{nil, []byte("probe")} {
			for _, id := range ids {
				for _, prev := range ids {
					if msg := probeFrameMismatch(id, prev, proto, payload); msg != "" {
						t.Fatalf("flow %d, proto %d, payload %q: %s", id, proto, payload, msg)
					}
				}
			}
		}
	}
	f := func(id, prev uint32, udp bool, payload []byte) bool {
		proto := IPProtocolTCP
		if udp {
			proto = IPProtocolUDP
		}
		return probeFrameMismatch(id, prev, proto, payload) == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// decode is DecodeInto on a fresh frame; nil on error.
func decode(data []byte) (*Frame, error) {
	var f Frame
	if err := DecodeInto(&f, data); err != nil {
		return nil, err
	}
	return &f, nil
}

// validChecksum reports whether the first 20 bytes of data carry a valid
// IPv4 header checksum.
func validChecksum(data []byte) bool {
	if len(data) < ipv4HeaderLen {
		return false
	}
	var sum uint32
	for i := 0; i+1 < ipv4HeaderLen; i += 2 {
		sum += uint32(binary.BigEndian.Uint16(data[i : i+2]))
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return uint16(sum) == 0xffff
}
