// Package packet implements serialization and decoding of the small set of
// protocol layers Tango's probing engine needs to synthesise data-plane
// traffic: Ethernet, IPv4, TCP and UDP. The design follows the layered model
// popularised by gopacket — each layer knows how to decode itself from bytes
// and serialize itself in front of a payload — but is deliberately minimal
// and allocation-conscious since probing sends tens of thousands of frames.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// EtherType identifies the payload protocol of an Ethernet frame.
type EtherType uint16

// EtherTypes understood by the switch pipeline.
const (
	EtherTypeIPv4 EtherType = 0x0800
	EtherTypeARP  EtherType = 0x0806
	EtherTypeVLAN EtherType = 0x8100
)

// IPProtocol identifies the payload protocol of an IPv4 packet.
type IPProtocol uint8

// IP protocol numbers used by probe traffic.
const (
	IPProtocolICMP IPProtocol = 1
	IPProtocolTCP  IPProtocol = 6
	IPProtocolUDP  IPProtocol = 17
)

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

// String renders the address in canonical colon notation.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// MACFromUint64 builds a MAC from the low 48 bits of v. Probing uses this to
// mint dense, unique source addresses for generated flows. The MAC is stored
// as a 4-byte and a 2-byte big-endian word, the two halves a MAC copy loads,
// so the copy reads each back whole instead of from six octet stores.
func MACFromUint64(v uint64) MAC {
	var m MAC
	binary.BigEndian.PutUint32(m[0:4], uint32(v>>16))
	binary.BigEndian.PutUint16(m[4:6], uint16(v))
	return m
}

// Errors returned by the decoders.
var (
	ErrTruncated = errors.New("packet: truncated data")
	ErrBadHeader = errors.New("packet: malformed header")
)

// Ethernet is a layer-2 frame header (without FCS).
type Ethernet struct {
	Dst, Src  MAC
	EtherType EtherType
}

// HeaderLen is the encoded size of an Ethernet header.
const ethernetHeaderLen = 14

// DecodeFromBytes parses the header from data and returns the payload bytes.
func (e *Ethernet) DecodeFromBytes(data []byte) ([]byte, error) {
	if len(data) < ethernetHeaderLen {
		return nil, fmt.Errorf("%w: ethernet needs %d bytes, have %d", ErrTruncated, ethernetHeaderLen, len(data))
	}
	copy(e.Dst[:], data[0:6])
	copy(e.Src[:], data[6:12])
	e.EtherType = EtherType(binary.BigEndian.Uint16(data[12:14]))
	return data[ethernetHeaderLen:], nil
}

// AppendTo appends the encoded header to b and returns the extended slice.
func (e *Ethernet) AppendTo(b []byte) []byte {
	b = append(b, e.Dst[:]...)
	b = append(b, e.Src[:]...)
	return binary.BigEndian.AppendUint16(b, uint16(e.EtherType))
}

// IPv4 is a layer-3 header. Options are not supported: probe traffic never
// carries them and the switch pipeline never inspects them.
type IPv4 struct {
	TOS      uint8
	TTL      uint8
	Protocol IPProtocol
	Src, Dst netip.Addr
	// ID is the identification field, useful for tagging probe packets.
	ID uint16
	// addrWord caches the packed src<<32|dst big-endian address word at
	// decode time, so exact-match classifiers keying on the address pair
	// read one integer instead of re-packing two netip.Addr values per
	// packet. Zero means "not cached" (hand-built headers, or the all-zero
	// address pair) and Addrs falls back to packing the addresses.
	addrWord uint64
}

// PackAddrs packs two IPv4 addresses into one word, src<<32 | dst in
// big-endian order: the key exact-match classifiers index an address pair
// by. ok is false if either address is not IPv4.
func PackAddrs(src, dst netip.Addr) (word uint64, ok bool) {
	if !src.Is4() || !dst.Is4() {
		return 0, false
	}
	s, d := src.As4(), dst.As4()
	return uint64(binary.BigEndian.Uint32(s[:]))<<32 | uint64(binary.BigEndian.Uint32(d[:])), true
}

// Addrs returns the header's packed address word (PackAddrs): the one
// cached at decode time, or Src and Dst packed; ok is false when they are
// not both IPv4.
func (ip *IPv4) Addrs() (uint64, bool) {
	if ip.addrWord != 0 {
		return ip.addrWord, true
	}
	return PackAddrs(ip.Src, ip.Dst)
}

const ipv4HeaderLen = 20

// DecodeFromBytes parses the header from data and returns the payload bytes.
func (ip *IPv4) DecodeFromBytes(data []byte) ([]byte, error) {
	if len(data) < ipv4HeaderLen {
		return nil, fmt.Errorf("%w: ipv4 needs %d bytes, have %d", ErrTruncated, ipv4HeaderLen, len(data))
	}
	vihl := data[0]
	if vihl>>4 != 4 {
		return nil, fmt.Errorf("%w: ip version %d", ErrBadHeader, vihl>>4)
	}
	ihl := int(vihl&0x0f) * 4
	if ihl < ipv4HeaderLen {
		return nil, fmt.Errorf("%w: ihl %d", ErrBadHeader, ihl)
	}
	if len(data) < ihl {
		return nil, fmt.Errorf("%w: ipv4 header extends past data", ErrTruncated)
	}
	ip.TOS = data[1]
	ip.ID = binary.BigEndian.Uint16(data[4:6])
	ip.TTL = data[8]
	ip.Protocol = IPProtocol(data[9])
	ip.Src = netip.AddrFrom4([4]byte(data[12:16]))
	ip.Dst = netip.AddrFrom4([4]byte(data[16:20]))
	ip.addrWord = binary.BigEndian.Uint64(data[12:20])
	return data[ihl:], nil
}

// AppendTo appends the encoded header to b assuming payloadLen payload bytes
// follow, and returns the extended slice. The checksum is computed over the
// final header.
func (ip *IPv4) AppendTo(b []byte, payloadLen int) ([]byte, error) {
	if !ip.Src.Is4() || !ip.Dst.Is4() {
		return nil, fmt.Errorf("%w: ipv4 layer requires 4-byte addresses", ErrBadHeader)
	}
	total := ipv4HeaderLen + payloadLen
	if total > 0xffff {
		return nil, fmt.Errorf("%w: packet too large (%d)", ErrBadHeader, total)
	}
	start := len(b)
	b = append(b, 0x45, ip.TOS)
	b = binary.BigEndian.AppendUint16(b, uint16(total))
	b = binary.BigEndian.AppendUint16(b, ip.ID)
	b = append(b, 0, 0) // flags + fragment offset
	ttl := ip.TTL
	if ttl == 0 {
		ttl = 64
	}
	b = append(b, ttl, byte(ip.Protocol), 0, 0) // checksum placeholder
	src := ip.Src.As4()
	dst := ip.Dst.As4()
	b = append(b, src[:]...)
	b = append(b, dst[:]...)
	sum := headerChecksum(b[start : start+ipv4HeaderLen])
	binary.BigEndian.PutUint16(b[start+10:start+12], sum)
	return b, nil
}

// headerChecksum is the RFC 791 ones-complement header checksum.
func headerChecksum(hdr []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(hdr); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(hdr[i : i+2]))
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// TCP is a minimal layer-4 header. Only the fields the flow pipeline matches
// on (ports) plus sequence bookkeeping are modelled; flags are carried
// through untouched.
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint16
}

const tcpHeaderLen = 20

// DecodeFromBytes parses the header from data and returns the payload bytes.
func (t *TCP) DecodeFromBytes(data []byte) ([]byte, error) {
	if len(data) < tcpHeaderLen {
		return nil, fmt.Errorf("%w: tcp needs %d bytes, have %d", ErrTruncated, tcpHeaderLen, len(data))
	}
	t.SrcPort = binary.BigEndian.Uint16(data[0:2])
	t.DstPort = binary.BigEndian.Uint16(data[2:4])
	t.Seq = binary.BigEndian.Uint32(data[4:8])
	t.Ack = binary.BigEndian.Uint32(data[8:12])
	off := int(data[12]>>4) * 4
	if off < tcpHeaderLen {
		return nil, fmt.Errorf("%w: tcp data offset %d", ErrBadHeader, off)
	}
	if len(data) < off {
		return nil, fmt.Errorf("%w: tcp header extends past data", ErrTruncated)
	}
	t.Flags = data[13]
	t.Window = binary.BigEndian.Uint16(data[14:16])
	return data[off:], nil
}

// AppendTo appends the encoded header to b and returns the extended slice.
// The checksum field is left zero: the emulated pipeline does not verify
// transport checksums, matching how hardware offload behaves in practice.
func (t *TCP) AppendTo(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, t.SrcPort)
	b = binary.BigEndian.AppendUint16(b, t.DstPort)
	b = binary.BigEndian.AppendUint32(b, t.Seq)
	b = binary.BigEndian.AppendUint32(b, t.Ack)
	b = append(b, 5<<4, t.Flags)
	b = binary.BigEndian.AppendUint16(b, t.Window)
	b = append(b, 0, 0, 0, 0) // checksum + urgent pointer
	return b
}

// UDP is a layer-4 datagram header.
type UDP struct {
	SrcPort, DstPort uint16
	// Length is the UDP length field (header + payload). Filled by decode;
	// computed on serialize.
	Length uint16
}

const udpHeaderLen = 8

// DecodeFromBytes parses the header from data and returns the payload bytes.
func (u *UDP) DecodeFromBytes(data []byte) ([]byte, error) {
	if len(data) < udpHeaderLen {
		return nil, fmt.Errorf("%w: udp needs %d bytes, have %d", ErrTruncated, udpHeaderLen, len(data))
	}
	u.SrcPort = binary.BigEndian.Uint16(data[0:2])
	u.DstPort = binary.BigEndian.Uint16(data[2:4])
	u.Length = binary.BigEndian.Uint16(data[4:6])
	if int(u.Length) < udpHeaderLen {
		return nil, fmt.Errorf("%w: udp length %d", ErrBadHeader, u.Length)
	}
	return data[udpHeaderLen:], nil
}

// AppendTo appends the encoded header to b assuming payloadLen payload bytes
// follow, and returns the extended slice.
func (u *UDP) AppendTo(b []byte, payloadLen int) []byte {
	b = binary.BigEndian.AppendUint16(b, u.SrcPort)
	b = binary.BigEndian.AppendUint16(b, u.DstPort)
	b = binary.BigEndian.AppendUint16(b, uint16(udpHeaderLen+payloadLen))
	b = append(b, 0, 0) // checksum (optional in IPv4)
	return b
}
