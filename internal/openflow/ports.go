package openflow

import (
	"encoding/binary"

	"tango/internal/packet"
)

// PortDesc is one ofp_phy_port entry (48 bytes on the wire).
type PortDesc struct {
	PortNo     uint16
	HWAddr     packet.MAC
	Name       string
	Config     uint32
	State      uint32
	Curr       uint32
	Advertised uint32
	Supported  uint32
	Peer       uint32
}

// Port state bits (ofp_port_state).
const (
	PortStateLinkDown uint32 = 1 << 0
)

// portDescLen is the encoded size of one port description.
const portDescLen = 48

func marshalPortDesc(b []byte, p *PortDesc) []byte {
	b = binary.BigEndian.AppendUint16(b, p.PortNo)
	b = append(b, p.HWAddr[:]...)
	var name [16]byte
	copy(name[:], p.Name)
	b = append(b, name[:]...)
	b = binary.BigEndian.AppendUint32(b, p.Config)
	b = binary.BigEndian.AppendUint32(b, p.State)
	b = binary.BigEndian.AppendUint32(b, p.Curr)
	b = binary.BigEndian.AppendUint32(b, p.Advertised)
	b = binary.BigEndian.AppendUint32(b, p.Supported)
	b = binary.BigEndian.AppendUint32(b, p.Peer)
	return b
}

func unmarshalPortDesc(b []byte) PortDesc {
	var p PortDesc
	p.PortNo = binary.BigEndian.Uint16(b[0:2])
	copy(p.HWAddr[:], b[2:8])
	name := b[8:24]
	end := 0
	for end < len(name) && name[end] != 0 {
		end++
	}
	p.Name = string(name[:end])
	p.Config = binary.BigEndian.Uint32(b[24:28])
	p.State = binary.BigEndian.Uint32(b[28:32])
	p.Curr = binary.BigEndian.Uint32(b[32:36])
	p.Advertised = binary.BigEndian.Uint32(b[36:40])
	p.Supported = binary.BigEndian.Uint32(b[40:44])
	p.Peer = binary.BigEndian.Uint32(b[44:48])
	return p
}

// PortStatus announces a port change (ofp_port_status).
type PortStatus struct {
	Header
	Reason uint8
	Desc   PortDesc
}

// Port status reasons (ofp_port_reason).
const (
	PortReasonAdd    uint8 = 0
	PortReasonDelete uint8 = 1
	PortReasonModify uint8 = 2
)

// Type implements Message.
func (*PortStatus) Type() MsgType { return TypePortStatus }

// Marshal implements Message.
func (m *PortStatus) Marshal(b []byte) []byte {
	b, off := putHeader(b, TypePortStatus, m.Xid)
	b = append(b, m.Reason, 0, 0, 0, 0, 0, 0, 0)
	b = marshalPortDesc(b, &m.Desc)
	return patchLen(b, off)
}

func decodePortStatus(m *PortStatus, hdr Header, body []byte) error {
	if len(body) < 8+portDescLen {
		return ErrTruncated
	}
	*m = PortStatus{
		Header: hdr,
		Reason: body[0],
		Desc:   unmarshalPortDesc(body[8:]),
	}
	return nil
}

// GetConfigRequest asks for the switch configuration.
type GetConfigRequest struct{ Header }

// Type implements Message.
func (*GetConfigRequest) Type() MsgType { return TypeGetConfigReq }

// Marshal implements Message.
func (m *GetConfigRequest) Marshal(b []byte) []byte {
	b, off := putHeader(b, TypeGetConfigReq, m.Xid)
	return patchLen(b, off)
}

// SwitchConfig carries OFPT_GET_CONFIG_REPLY / OFPT_SET_CONFIG bodies.
type SwitchConfig struct {
	Header
	// Set distinguishes SET_CONFIG (true) from GET_CONFIG_REPLY (false).
	Set         bool
	Flags       uint16
	MissSendLen uint16
}

// Type implements Message.
func (m *SwitchConfig) Type() MsgType {
	if m.Set {
		return TypeSetConfig
	}
	return TypeGetConfigReply
}

// Marshal implements Message.
func (m *SwitchConfig) Marshal(b []byte) []byte {
	b, off := putHeader(b, m.Type(), m.Xid)
	b = binary.BigEndian.AppendUint16(b, m.Flags)
	b = binary.BigEndian.AppendUint16(b, m.MissSendLen)
	return patchLen(b, off)
}

func decodeSwitchConfig(m *SwitchConfig, hdr Header, body []byte, set bool) error {
	if len(body) < 4 {
		return ErrTruncated
	}
	*m = SwitchConfig{
		Header:      hdr,
		Set:         set,
		Flags:       binary.BigEndian.Uint16(body[0:2]),
		MissSendLen: binary.BigEndian.Uint16(body[2:4]),
	}
	return nil
}
