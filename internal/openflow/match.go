package openflow

import (
	"encoding/binary"
	"fmt"
	"net/netip"

	"tango/internal/flowtable"
	"tango/internal/packet"
)

// matchLen is the encoded size of ofp_match.
const matchLen = 40

// marshalMatch encodes m into the 40-byte ofp_match layout, appending to b.
func marshalMatch(b []byte, m *flowtable.Match) []byte {
	wc := wcAll
	var (
		inPort           uint16
		dlSrc, dlDst     packet.MAC
		dlType           uint16
		nwProto          uint8
		nwSrc, nwDst     [4]byte
		nwSrcPL, nwDstPL int // prefix lengths
		tpSrc, tpDst     uint16
	)
	if m.Has(flowtable.FieldInPort) {
		wc &^= wcInPort
		inPort = m.InPort
	}
	if m.Has(flowtable.FieldDlSrc) {
		wc &^= wcDlSrc
		dlSrc = m.DlSrc
	}
	if m.Has(flowtable.FieldDlDst) {
		wc &^= wcDlDst
		dlDst = m.DlDst
	}
	if m.Has(flowtable.FieldDlType) {
		wc &^= wcDlType
		dlType = uint16(m.DlType)
	}
	if m.Has(flowtable.FieldNwProto) {
		wc &^= wcNwProto
		nwProto = uint8(m.NwProto)
	}
	if m.Has(flowtable.FieldNwSrc) {
		nwSrc = m.NwSrc.Addr().As4()
		nwSrcPL = m.NwSrc.Bits()
	}
	if m.Has(flowtable.FieldNwDst) {
		nwDst = m.NwDst.Addr().As4()
		nwDstPL = m.NwDst.Bits()
	}
	if m.Has(flowtable.FieldTpSrc) {
		wc &^= wcTpSrc
		tpSrc = m.TpSrc
	}
	if m.Has(flowtable.FieldTpDst) {
		wc &^= wcTpDst
		tpDst = m.TpDst
	}
	// In OF1.0 the NW wildcard fields count ignored low-order bits: 0 means
	// exact /32, 32+ means fully wildcarded.
	wc &^= wcNwSrcMask | wcNwDstMask
	wc |= uint32(32-nwSrcPL) << wcNwSrcShift
	wc |= uint32(32-nwDstPL) << wcNwDstShift

	b = binary.BigEndian.AppendUint32(b, wc)
	b = binary.BigEndian.AppendUint16(b, inPort)
	b = append(b, dlSrc[:]...)
	b = append(b, dlDst[:]...)
	b = binary.BigEndian.AppendUint16(b, 0xffff) // dl_vlan: OFP_VLAN_NONE
	b = append(b, 0, 0)                          // dl_vlan_pcp + pad
	b = binary.BigEndian.AppendUint16(b, dlType)
	b = append(b, 0, byte(nwProto), 0, 0) // nw_tos, nw_proto, pad[2]
	b = append(b, nwSrc[:]...)
	b = append(b, nwDst[:]...)
	b = binary.BigEndian.AppendUint16(b, tpSrc)
	b = binary.BigEndian.AppendUint16(b, tpDst)
	return b
}

// unmarshalMatch decodes a 40-byte ofp_match into a flowtable.Match.
func unmarshalMatch(b []byte) (flowtable.Match, error) {
	var m flowtable.Match
	if len(b) < matchLen {
		return m, fmt.Errorf("openflow: match needs %d bytes, have %d", matchLen, len(b))
	}
	wc := binary.BigEndian.Uint32(b[0:4])
	if wc&wcInPort == 0 {
		m.Fields |= flowtable.FieldInPort
		m.InPort = binary.BigEndian.Uint16(b[4:6])
	}
	if wc&wcDlSrc == 0 {
		m.Fields |= flowtable.FieldDlSrc
		copy(m.DlSrc[:], b[6:12])
	}
	if wc&wcDlDst == 0 {
		m.Fields |= flowtable.FieldDlDst
		copy(m.DlDst[:], b[12:18])
	}
	if wc&wcDlType == 0 {
		m.Fields |= flowtable.FieldDlType
		m.DlType = packet.EtherType(binary.BigEndian.Uint16(b[22:24]))
	}
	if wc&wcNwProto == 0 {
		m.Fields |= flowtable.FieldNwProto
		m.NwProto = packet.IPProtocol(b[25])
	}
	if ignored := int(wc & wcNwSrcMask >> wcNwSrcShift); ignored < 32 {
		m.Fields |= flowtable.FieldNwSrc
		addr := netip.AddrFrom4([4]byte(b[28:32]))
		m.NwSrc = netip.PrefixFrom(addr, 32-ignored).Masked()
	}
	if ignored := int(wc & wcNwDstMask >> wcNwDstShift); ignored < 32 {
		m.Fields |= flowtable.FieldNwDst
		addr := netip.AddrFrom4([4]byte(b[32:36]))
		m.NwDst = netip.PrefixFrom(addr, 32-ignored).Masked()
	}
	if wc&wcTpSrc == 0 {
		m.Fields |= flowtable.FieldTpSrc
		m.TpSrc = binary.BigEndian.Uint16(b[36:38])
	}
	if wc&wcTpDst == 0 {
		m.Fields |= flowtable.FieldTpDst
		m.TpDst = binary.BigEndian.Uint16(b[38:40])
	}
	return m, nil
}

// actionLen is the encoded size of one ofp_action_output.
const actionLen = 8

// marshalActions encodes a rule action list as ofp_action_output structs.
func marshalActions(b []byte, actions []flowtable.Action) []byte {
	for _, a := range actions {
		port := a.Port
		if a.Type == flowtable.ActionController {
			port = PortController
		}
		b = binary.BigEndian.AppendUint16(b, ActionTypeOutput)
		b = binary.BigEndian.AppendUint16(b, actionLen)
		b = binary.BigEndian.AppendUint16(b, port)
		b = binary.BigEndian.AppendUint16(b, 0xffff) // max_len (to controller)
	}
	return b
}

// Shared single-action lists: an output to port p below len(outputTo) is
// outputTo[p:p+1:p+1], an output to the controller toController. They are
// never written after init; the capacity cap keeps an append from reaching a
// neighbour.
var (
	outputTo     [256]flowtable.Action
	toController = []flowtable.Action{{Type: flowtable.ActionController}}
)

func init() {
	for p := range outputTo {
		outputTo[p] = flowtable.Action{Type: flowtable.ActionOutput, Port: uint16(p)}
	}
}

// unmarshalActions decodes a packed action list. A list of one output — the
// only shape a probe rule or a PACKET_OUT carries — decodes to a shared
// immutable slice, so decoding it allocates nothing and never aliases the
// frame: a switch keeps a rule's actions past the frame that installed it.
// Every other list is fresh.
func unmarshalActions(b []byte) ([]flowtable.Action, error) {
	if len(b) == actionLen && binary.BigEndian.Uint16(b[0:2]) == ActionTypeOutput &&
		binary.BigEndian.Uint16(b[2:4]) == actionLen {
		switch port := binary.BigEndian.Uint16(b[4:6]); {
		case port == PortController:
			return toController, nil
		case int(port) < len(outputTo):
			return outputTo[port : port+1 : port+1], nil
		}
	}
	var out []flowtable.Action
	for len(b) > 0 {
		if len(b) < 4 {
			return nil, fmt.Errorf("openflow: truncated action header")
		}
		typ := binary.BigEndian.Uint16(b[0:2])
		alen := int(binary.BigEndian.Uint16(b[2:4]))
		if alen < 8 || alen%8 != 0 || alen > len(b) {
			return nil, fmt.Errorf("openflow: bad action length %d", alen)
		}
		if typ == ActionTypeOutput {
			port := binary.BigEndian.Uint16(b[4:6])
			act := flowtable.Action{Type: flowtable.ActionOutput, Port: port}
			if port == PortController {
				act = flowtable.Action{Type: flowtable.ActionController}
			}
			out = append(out, act)
		}
		// Unknown action types are skipped; the emulated switch ignores them
		// just as hardware ignores optional actions it cannot honour.
		b = b[alen:]
	}
	return out, nil
}
