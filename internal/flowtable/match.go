// Package flowtable implements OpenFlow flow-table semantics: header-field
// matches with wildcards and prefixes, priority-ordered rule tables, and the
// TCAM capacity model (single-wide / double-wide / adaptive modes) that
// explains the diverse table sizes of Table 1 in the Tango paper.
package flowtable

import (
	"fmt"
	"net/netip"
	"strings"

	"tango/internal/packet"
)

// Field is a bit flag identifying one matchable header field.
type Field uint16

// Matchable fields. A Match only constrains the fields present in its Fields
// set; everything else is wildcarded, as in OpenFlow 1.0.
const (
	FieldInPort Field = 1 << iota
	FieldDlSrc
	FieldDlDst
	FieldDlType
	FieldNwSrc
	FieldNwDst
	FieldNwProto
	FieldTpSrc
	FieldTpDst
)

// l2Fields and l3Fields partition the fields into the layers that determine
// TCAM entry width.
const (
	l2Fields = FieldDlSrc | FieldDlDst | FieldDlType
	l3Fields = FieldNwSrc | FieldNwDst | FieldNwProto | FieldTpSrc | FieldTpDst
)

// Width classifies a match by the TCAM entry width it needs.
type Width int

// Entry widths.
const (
	// WidthL2 matches only L2 headers (single-wide TCAM entry).
	WidthL2 Width = iota
	// WidthL3 matches only L3/L4 headers (single-wide TCAM entry).
	WidthL3
	// WidthL2L3 matches both layers and needs a double-wide entry.
	WidthL2L3
	// WidthNone constrains neither layer (e.g. in-port-only or match-all).
	WidthNone
)

// String implements fmt.Stringer.
func (w Width) String() string {
	switch w {
	case WidthL2:
		return "L2"
	case WidthL3:
		return "L3"
	case WidthL2L3:
		return "L2+L3"
	default:
		return "none"
	}
}

// Match is a header-space predicate. The zero value matches every frame.
// Field order is packing-conscious (the pointer-aligned prefixes lead),
// gated by the structlayout test: matches are embedded in every rule and
// scanned on lookup misses.
type Match struct {
	NwSrc netip.Prefix
	NwDst netip.Prefix
	// Fields records which of the other members are significant.
	Fields  Field
	InPort  uint16
	DlSrc   packet.MAC
	DlDst   packet.MAC
	DlType  packet.EtherType
	NwProto packet.IPProtocol
	TpSrc   uint16
	TpDst   uint16
}

// Has reports whether field f is constrained by the match.
func (m *Match) Has(f Field) bool { return m.Fields&f != 0 }

// Width returns the TCAM entry width required for this match.
func (m *Match) Width() Width {
	l2 := m.Fields&l2Fields != 0
	l3 := m.Fields&l3Fields != 0
	switch {
	case l2 && l3:
		return WidthL2L3
	case l2:
		return WidthL2
	case l3:
		return WidthL3
	default:
		return WidthNone
	}
}

// Matches reports whether frame f (arriving on inPort) satisfies the match.
func (m *Match) Matches(f *packet.Frame, inPort uint16) bool {
	if m.Has(FieldInPort) && m.InPort != inPort {
		return false
	}
	if m.Has(FieldDlSrc) && m.DlSrc != f.Eth.Src {
		return false
	}
	if m.Has(FieldDlDst) && m.DlDst != f.Eth.Dst {
		return false
	}
	if m.Has(FieldDlType) && m.DlType != f.Eth.EtherType {
		return false
	}
	if m.Fields&l3Fields != 0 && !f.HasIPv4 {
		return false
	}
	if m.Has(FieldNwSrc) && !m.NwSrc.Contains(f.IP.Src) {
		return false
	}
	if m.Has(FieldNwDst) && !m.NwDst.Contains(f.IP.Dst) {
		return false
	}
	if m.Has(FieldNwProto) && m.NwProto != f.IP.Protocol {
		return false
	}
	if m.Fields&(FieldTpSrc|FieldTpDst) != 0 {
		var src, dst uint16
		switch {
		case f.HasTCP:
			src, dst = f.TCP.SrcPort, f.TCP.DstPort
		case f.HasUDP:
			src, dst = f.UDP.SrcPort, f.UDP.DstPort
		default:
			return false
		}
		if m.Has(FieldTpSrc) && m.TpSrc != src {
			return false
		}
		if m.Has(FieldTpDst) && m.TpDst != dst {
			return false
		}
	}
	return true
}

// MatchesRest verifies the non-address constraints of an exact-indexed match
// against frame f. The caller must already have established that
// FrameKey(f) equals ExactKey(m): key equality pins nw_src and nw_dst (both
// /32) and implies the frame is IPv4, so only the remaining fields need
// checking. Splitting those off skips the netip prefix containment tests
// that dominate Matches on probing workloads.
func (m *Match) MatchesRest(f *packet.Frame, inPort uint16) bool {
	if m.Has(FieldInPort) && m.InPort != inPort {
		return false
	}
	if m.Has(FieldDlSrc) && m.DlSrc != f.Eth.Src {
		return false
	}
	if m.Has(FieldDlDst) && m.DlDst != f.Eth.Dst {
		return false
	}
	if m.Has(FieldDlType) && m.DlType != f.Eth.EtherType {
		return false
	}
	if m.Has(FieldNwProto) && m.NwProto != f.IP.Protocol {
		return false
	}
	if m.Fields&(FieldTpSrc|FieldTpDst) != 0 {
		var src, dst uint16
		switch {
		case f.HasTCP:
			src, dst = f.TCP.SrcPort, f.TCP.DstPort
		case f.HasUDP:
			src, dst = f.UDP.SrcPort, f.UDP.DstPort
		default:
			return false
		}
		if m.Has(FieldTpSrc) && m.TpSrc != src {
			return false
		}
		if m.Has(FieldTpDst) && m.TpDst != dst {
			return false
		}
	}
	return true
}

// Overlaps reports whether some frame could satisfy both matches. It is
// conservative in the right direction for dependency analysis: two matches
// that disagree on any exactly matched field do not overlap; otherwise they
// are assumed to overlap.
func (m *Match) Overlaps(o *Match) bool {
	both := m.Fields & o.Fields
	if both&FieldInPort != 0 && m.InPort != o.InPort {
		return false
	}
	if both&FieldDlSrc != 0 && m.DlSrc != o.DlSrc {
		return false
	}
	if both&FieldDlDst != 0 && m.DlDst != o.DlDst {
		return false
	}
	if both&FieldDlType != 0 && m.DlType != o.DlType {
		return false
	}
	if both&FieldNwSrc != 0 && !m.NwSrc.Overlaps(o.NwSrc) {
		return false
	}
	if both&FieldNwDst != 0 && !m.NwDst.Overlaps(o.NwDst) {
		return false
	}
	if both&FieldNwProto != 0 && m.NwProto != o.NwProto {
		return false
	}
	if both&FieldTpSrc != 0 && m.TpSrc != o.TpSrc {
		return false
	}
	if both&FieldTpDst != 0 && m.TpDst != o.TpDst {
		return false
	}
	return true
}

// Covers reports whether every frame matched by o is also matched by m
// (m is a superset predicate). ClassBench dependency analysis uses this to
// decide when rule order matters.
func (m *Match) Covers(o *Match) bool {
	// m may only constrain fields that o also constrains.
	if m.Fields&^o.Fields != 0 {
		return false
	}
	if m.Has(FieldInPort) && m.InPort != o.InPort {
		return false
	}
	if m.Has(FieldDlSrc) && m.DlSrc != o.DlSrc {
		return false
	}
	if m.Has(FieldDlDst) && m.DlDst != o.DlDst {
		return false
	}
	if m.Has(FieldDlType) && m.DlType != o.DlType {
		return false
	}
	if m.Has(FieldNwSrc) && !prefixCovers(m.NwSrc, o.NwSrc) {
		return false
	}
	if m.Has(FieldNwDst) && !prefixCovers(m.NwDst, o.NwDst) {
		return false
	}
	if m.Has(FieldNwProto) && m.NwProto != o.NwProto {
		return false
	}
	if m.Has(FieldTpSrc) && m.TpSrc != o.TpSrc {
		return false
	}
	if m.Has(FieldTpDst) && m.TpDst != o.TpDst {
		return false
	}
	return true
}

// prefixCovers reports whether prefix a contains every address in prefix b.
func prefixCovers(a, b netip.Prefix) bool {
	return a.Bits() <= b.Bits() && a.Contains(b.Addr())
}

// Same reports whether two matches are identical predicates. OpenFlow
// identifies the rule targeted by a modify/delete command by exact match
// equality (plus priority, handled by the table).
func (m *Match) Same(o *Match) bool {
	if m.Fields != o.Fields {
		return false
	}
	return (!m.Has(FieldInPort) || m.InPort == o.InPort) &&
		(!m.Has(FieldDlSrc) || m.DlSrc == o.DlSrc) &&
		(!m.Has(FieldDlDst) || m.DlDst == o.DlDst) &&
		(!m.Has(FieldDlType) || m.DlType == o.DlType) &&
		(!m.Has(FieldNwSrc) || m.NwSrc == o.NwSrc) &&
		(!m.Has(FieldNwDst) || m.NwDst == o.NwDst) &&
		(!m.Has(FieldNwProto) || m.NwProto == o.NwProto) &&
		(!m.Has(FieldTpSrc) || m.TpSrc == o.TpSrc) &&
		(!m.Has(FieldTpDst) || m.TpDst == o.TpDst)
}

// String renders the match compactly for logs and test failures.
func (m *Match) String() string {
	if m.Fields == 0 {
		return "any"
	}
	var parts []string
	if m.Has(FieldInPort) {
		parts = append(parts, fmt.Sprintf("in_port=%d", m.InPort))
	}
	if m.Has(FieldDlSrc) {
		parts = append(parts, "dl_src="+m.DlSrc.String())
	}
	if m.Has(FieldDlDst) {
		parts = append(parts, "dl_dst="+m.DlDst.String())
	}
	if m.Has(FieldDlType) {
		parts = append(parts, fmt.Sprintf("dl_type=0x%04x", uint16(m.DlType)))
	}
	if m.Has(FieldNwSrc) {
		parts = append(parts, "nw_src="+m.NwSrc.String())
	}
	if m.Has(FieldNwDst) {
		parts = append(parts, "nw_dst="+m.NwDst.String())
	}
	if m.Has(FieldNwProto) {
		parts = append(parts, fmt.Sprintf("nw_proto=%d", m.NwProto))
	}
	if m.Has(FieldTpSrc) {
		parts = append(parts, fmt.Sprintf("tp_src=%d", m.TpSrc))
	}
	if m.Has(FieldTpDst) {
		parts = append(parts, fmt.Sprintf("tp_dst=%d", m.TpDst))
	}
	return strings.Join(parts, ",")
}

// ExactProbeMatch returns the L2+L3+L4 match that the probe frame for flow
// id satisfies — the rule side of a Tango pattern.
func ExactProbeMatch(id uint32) Match {
	return Match{
		Fields: FieldDlType | FieldNwSrc | FieldNwDst | FieldNwProto | FieldTpDst,
		DlType: packet.EtherTypeIPv4,
		NwSrc:  netip.PrefixFrom(packet.ProbeSrcIP(id), 32),
		NwDst:  netip.PrefixFrom(packet.ProbeDstIP(id), 32),

		NwProto: packet.IPProtocolTCP,
		TpDst:   80,
	}
}

// ProbeBlockMatch returns the match a non-strict delete takes to cover the
// exact probe rules of flows [lo, lo+2^bits), at every priority. lo must be
// a multiple of 2^bits and bits at most 16: such a block shares its flows'
// destination address but for the low bits, so it is one nw_dst prefix.
// nw_src goes wildcarded, and the match pins what ExactProbeMatch pins
// besides, so it covers no rule of another shape.
func ProbeBlockMatch(lo uint32, bits int) Match {
	m := ExactProbeMatch(lo)
	m.Fields &^= FieldNwSrc
	m.NwSrc = netip.Prefix{}
	m.NwDst = netip.PrefixFrom(m.NwDst.Addr(), 32-bits)
	return m
}

// L3ProbeMatch returns an L3-only match for flow id (used when probing
// single-wide TCAM modes).
func L3ProbeMatch(id uint32) Match {
	return Match{
		Fields: FieldNwSrc | FieldNwDst,
		NwSrc:  netip.PrefixFrom(packet.ProbeSrcIP(id), 32),
		NwDst:  netip.PrefixFrom(packet.ProbeDstIP(id), 32),
	}
}

// L2ProbeMatch returns an L2-only match for flow id.
func L2ProbeMatch(id uint32) Match {
	return Match{
		Fields: FieldDlSrc | FieldDlDst,
		DlSrc:  packet.MACFromUint64(0x0200_0100_0000 | uint64(id)),
		DlDst:  packet.MACFromUint64(0x0200_0000_0000 | uint64(id)),
	}
}
