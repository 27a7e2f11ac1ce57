package packet

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// Frame is a fully parsed probe frame: the decoded header fields of every
// layer present plus the application payload. It is the unit the emulated
// switch pipeline matches against its flow tables.
type Frame struct {
	Eth     Ethernet
	HasIPv4 bool
	IP      IPv4
	HasTCP  bool
	TCP     TCP
	HasUDP  bool
	UDP     UDP
	Payload []byte
}

// DecodeInto parses data into f, overwriting any previous contents. Callers
// that decode packets in a hot loop reuse one Frame instead of allocating
// per packet; f.Payload aliases data and is only valid until the next decode.
func DecodeInto(f *Frame, data []byte) error {
	*f = Frame{}
	rest, err := f.Eth.DecodeFromBytes(data)
	if err != nil {
		return err
	}
	f.Payload = rest
	if f.Eth.EtherType != EtherTypeIPv4 {
		return nil
	}
	rest, err = f.IP.DecodeFromBytes(rest)
	if err != nil {
		return fmt.Errorf("decoding ipv4: %w", err)
	}
	f.HasIPv4 = true
	f.Payload = rest
	switch f.IP.Protocol {
	case IPProtocolTCP:
		rest, err = f.TCP.DecodeFromBytes(rest)
		if err != nil {
			return fmt.Errorf("decoding tcp: %w", err)
		}
		f.HasTCP = true
		f.Payload = rest
	case IPProtocolUDP:
		rest, err = f.UDP.DecodeFromBytes(rest)
		if err != nil {
			return fmt.Errorf("decoding udp: %w", err)
		}
		f.HasUDP = true
		f.Payload = rest
	}
	return nil
}

// AppendSerialize appends the frame's encoding to b and returns the extended
// slice, writing the layers in place instead of assembling a scratch L4
// buffer first — callers with a pre-sized b serialize without allocating.
func (f *Frame) AppendSerialize(b []byte) ([]byte, error) {
	b = f.Eth.AppendTo(b)
	if !f.HasIPv4 {
		return append(b, f.Payload...), nil
	}
	l4len := len(f.Payload)
	switch {
	case f.HasTCP:
		l4len += tcpHeaderLen
	case f.HasUDP:
		l4len += udpHeaderLen
	}
	var err error
	b, err = f.IP.AppendTo(b, l4len)
	if err != nil {
		return nil, err
	}
	switch {
	case f.HasTCP:
		b = f.TCP.AppendTo(b)
	case f.HasUDP:
		b = f.UDP.AppendTo(b, len(f.Payload))
	}
	return append(b, f.Payload...), nil
}

// FiveTuple is a canonical flow identity: what the emulated kernel
// microflow cache (exact-match table) matches a frame on. Both addresses
// are in Addrs, packed as IPv4.Addrs packs them, so a tuple holds no
// pointer and compares as two words.
type FiveTuple struct {
	Addrs            uint64
	SrcPort, DstPort uint16
	Proto            IPProtocol
}

// FiveTuple extracts the flow identity of an IPv4 frame. The boolean is
// false for non-IP frames, which exact-match caches ignore, and for frames
// whose addresses are not both IPv4.
func (f *Frame) FiveTuple() (FiveTuple, bool) {
	if !f.HasIPv4 {
		return FiveTuple{}, false
	}
	addrs, ok := f.IP.Addrs()
	if !ok {
		return FiveTuple{}, false
	}
	ft := FiveTuple{Addrs: addrs, Proto: f.IP.Protocol}
	switch {
	case f.HasTCP:
		ft.SrcPort, ft.DstPort = f.TCP.SrcPort, f.TCP.DstPort
	case f.HasUDP:
		ft.SrcPort, ft.DstPort = f.UDP.SrcPort, f.UDP.DstPort
	}
	return ft, true
}

// ProbeSpec describes a synthetic flow for which probe frames are minted.
// The probing engine enumerates flow IDs; each ID maps deterministically to
// distinct L2+L3+L4 headers so that generated rules and generated traffic
// agree (a Tango pattern is "a sequence of OpenFlow commands and a
// corresponding data traffic pattern").
type ProbeSpec struct {
	FlowID  uint32
	Proto   IPProtocol // TCP unless set otherwise
	Payload []byte
}

// probeBase* define the address blocks probe traffic is minted from, as
// big-endian words. The 10.83.0.0/16 block is private and unlikely to collide
// with pre-installed rules on a device under test.
const (
	probeBaseSrc uint32 = 10<<24 | 83<<16
	probeBaseDst uint32 = 10<<24 | 84<<16
)

// probeIP4 offsets flow id into base's address block: the low 16 bits of id
// are the last two octets, and id's third byte spills into the second octet
// (past 65536 flows), wrapping within it. The address is computed as one word
// and stored whole, never assembled octet by octet and reloaded.
func probeIP4(base, id uint32) uint32 {
	second := (base>>16 + id>>16) & 0xff
	return base&0xff000000 | second<<16 | id&0xffff
}

// addrFromWord is the IPv4 address whose big-endian form is w.
func addrFromWord(w uint32) netip.Addr {
	var a [4]byte
	binary.BigEndian.PutUint32(a[:], w)
	return netip.AddrFrom4(a)
}

// ProbeSrcIP returns the source address assigned to flow id.
func ProbeSrcIP(id uint32) netip.Addr { return addrFromWord(probeIP4(probeBaseSrc, id)) }

// ProbeDstIP returns the destination address assigned to flow id.
func ProbeDstIP(id uint32) netip.Addr { return addrFromWord(probeIP4(probeBaseDst, id)) }

// BuildProbe mints the wire bytes of the probe frame for spec. Frames for
// the same FlowID are always byte-identical except for the payload.
func BuildProbe(spec ProbeSpec) ([]byte, error) {
	return AppendBuildProbe(make([]byte, 0, 64+len(spec.Payload)), spec)
}

// AppendBuildProbe appends the probe frame for spec to b and returns the
// extended slice; with a pre-sized b it mints the frame without allocating.
func AppendBuildProbe(b []byte, spec ProbeSpec) ([]byte, error) {
	var f Frame
	BuildProbeFrame(&f, spec)
	return f.AppendSerialize(b)
}

// ProbeFrameLen is the encoded length of a payload-less TCP probe frame
// (Ethernet 14 + IPv4 20 + TCP 20): the size argument in-process senders
// give FrameDevice.SendFrameN for a frame they never serialize.
const ProbeFrameLen = ethernetHeaderLen + ipv4HeaderLen + tcpHeaderLen

// BuildProbeFrame fills f in place with the decoded form of the probe frame
// for spec — the same Frame a DecodeInto of BuildProbe's wire bytes would
// yield, including the packed address word the exact-match fast path keys
// on. In-process senders (the probing engine over
// a FrameDevice, the conformance background drivers) build one frame this
// way and skip the encode/decode round trip entirely. The fields that
// depend on the flow ID are RetargetProbeFrame's; the ones set here are the
// same for every ID.
func BuildProbeFrame(f *Frame, spec ProbeSpec) {
	proto := spec.Proto
	if proto == 0 {
		proto = IPProtocolTCP
	}
	*f = Frame{
		Eth:     Ethernet{EtherType: EtherTypeIPv4},
		HasIPv4: true,
		IP:      IPv4{Protocol: proto, TTL: 64},
		Payload: spec.Payload,
	}
	switch proto {
	case IPProtocolTCP:
		f.HasTCP = true
		f.TCP = TCP{DstPort: 80, Window: 65535}
	case IPProtocolUDP:
		f.HasUDP = true
		f.UDP = UDP{DstPort: 53, Length: uint16(udpHeaderLen + len(spec.Payload))}
	}
	RetargetProbeFrame(f, spec.FlowID)
}

// RetargetProbeFrame rewrites a frame built by BuildProbeFrame to be flow
// id's frame of the same protocol and payload. It touches exactly the fields
// minted from the ID — both MACs, both addresses and their packed word, the
// IP identification and the L4 source port — so a sender that owns one frame
// walks it across flows without rebuilding the constant fields, and the
// ID → header mapping still lives in one place.
func RetargetProbeFrame(f *Frame, id uint32) {
	f.Eth.Dst = MACFromUint64(0x0200_0000_0000 | uint64(id))
	f.Eth.Src = MACFromUint64(0x0200_0100_0000 | uint64(id))
	src, dst := probeIP4(probeBaseSrc, id), probeIP4(probeBaseDst, id)
	f.IP.Src = addrFromWord(src)
	f.IP.Dst = addrFromWord(dst)
	f.IP.ID = uint16(id)
	f.IP.addrWord = uint64(src)<<32 | uint64(dst)
	port := 1024 + uint16(id%50000)
	switch {
	case f.HasTCP:
		f.TCP.SrcPort = port
	case f.HasUDP:
		f.UDP.SrcPort = port
	}
}
