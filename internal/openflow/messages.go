package openflow

import (
	"encoding/binary"
	"errors"
	"fmt"

	"tango/internal/flowtable"
)

// headerLen is the size of every OpenFlow message header.
const headerLen = 8

// MaxMessageLen bounds a message: no 16-bit length field can announce a
// longer frame, so a Reader's buffer of this size holds whatever a hostile or
// corrupt header claims.
const MaxMessageLen = 1 << 16

// Message is any OpenFlow protocol message. Marshal appends the full wire
// encoding — header included — to b.
type Message interface {
	// Type returns the message's OpenFlow type code.
	Type() MsgType
	// XID returns the transaction ID used to pair requests and replies.
	XID() uint32
	// Marshal appends the complete wire form to b.
	Marshal(b []byte) []byte
}

// Header carries the fields common to all messages. Embed it in message
// structs. The Length field is computed during Marshal and populated during
// decode.
type Header struct {
	Xid uint32
}

// XID returns the transaction ID.
func (h *Header) XID() uint32 { return h.Xid }

// SetXID sets the transaction ID.
func (h *Header) SetXID(x uint32) { h.Xid = x }

// putHeader appends an OpenFlow header with a placeholder length and returns
// the offset of the length field for patchLen.
func putHeader(b []byte, t MsgType, xid uint32) ([]byte, int) {
	off := len(b)
	b = append(b, Version, byte(t), 0, 0)
	b = binary.BigEndian.AppendUint32(b, xid)
	return b, off
}

// patchLen writes the final message length at the header starting at off.
func patchLen(b []byte, off int) []byte {
	binary.BigEndian.PutUint16(b[off+2:off+4], uint16(len(b)-off))
	return b
}

// Hello opens the connection; both sides send it first.
type Hello struct{ Header }

// Type implements Message.
func (*Hello) Type() MsgType { return TypeHello }

// Marshal implements Message.
func (m *Hello) Marshal(b []byte) []byte {
	b, off := putHeader(b, TypeHello, m.Xid)
	return patchLen(b, off)
}

// EchoRequest carries opaque data the peer must echo back. Tango's probing
// engine uses echo RTT as a floor estimate of channel latency.
type EchoRequest struct {
	Header
	Data []byte
}

// Type implements Message.
func (*EchoRequest) Type() MsgType { return TypeEchoRequest }

// Marshal implements Message.
func (m *EchoRequest) Marshal(b []byte) []byte {
	b, off := putHeader(b, TypeEchoRequest, m.Xid)
	b = append(b, m.Data...)
	return patchLen(b, off)
}

// EchoReply answers an EchoRequest with the same data.
type EchoReply struct {
	Header
	Data []byte
}

// Type implements Message.
func (*EchoReply) Type() MsgType { return TypeEchoReply }

// Marshal implements Message.
func (m *EchoReply) Marshal(b []byte) []byte {
	b, off := putHeader(b, TypeEchoReply, m.Xid)
	b = append(b, m.Data...)
	return patchLen(b, off)
}

// FeaturesRequest asks the switch for its datapath description.
type FeaturesRequest struct{ Header }

// Type implements Message.
func (*FeaturesRequest) Type() MsgType { return TypeFeaturesRequest }

// Marshal implements Message.
func (m *FeaturesRequest) Marshal(b []byte) []byte {
	b, off := putHeader(b, TypeFeaturesRequest, m.Xid)
	return patchLen(b, off)
}

// FeaturesReply describes the switch, including its physical ports.
type FeaturesReply struct {
	Header
	DatapathID   uint64
	NBuffers     uint32
	NTables      uint8
	Capabilities uint32
	Actions      uint32
	Ports        []PortDesc
}

// Type implements Message.
func (*FeaturesReply) Type() MsgType { return TypeFeaturesReply }

// Marshal implements Message.
func (m *FeaturesReply) Marshal(b []byte) []byte {
	b, off := putHeader(b, TypeFeaturesReply, m.Xid)
	b = binary.BigEndian.AppendUint64(b, m.DatapathID)
	b = binary.BigEndian.AppendUint32(b, m.NBuffers)
	b = append(b, m.NTables, 0, 0, 0)
	b = binary.BigEndian.AppendUint32(b, m.Capabilities)
	b = binary.BigEndian.AppendUint32(b, m.Actions)
	for i := range m.Ports {
		b = marshalPortDesc(b, &m.Ports[i])
	}
	return patchLen(b, off)
}

// FlowMod programs the switch's flow tables.
type FlowMod struct {
	Header
	Match       flowtable.Match
	Cookie      uint64
	Command     FlowModCommand
	IdleTimeout uint16
	HardTimeout uint16
	Priority    uint16
	BufferID    uint32
	OutPort     uint16
	Flags       uint16
	Actions     []flowtable.Action
}

// Type implements Message.
func (*FlowMod) Type() MsgType { return TypeFlowMod }

// Marshal implements Message.
func (m *FlowMod) Marshal(b []byte) []byte {
	b, off := putHeader(b, TypeFlowMod, m.Xid)
	b = marshalMatch(b, &m.Match)
	b = binary.BigEndian.AppendUint64(b, m.Cookie)
	b = binary.BigEndian.AppendUint16(b, uint16(m.Command))
	b = binary.BigEndian.AppendUint16(b, m.IdleTimeout)
	b = binary.BigEndian.AppendUint16(b, m.HardTimeout)
	b = binary.BigEndian.AppendUint16(b, m.Priority)
	b = binary.BigEndian.AppendUint32(b, m.BufferID)
	b = binary.BigEndian.AppendUint16(b, m.OutPort)
	b = binary.BigEndian.AppendUint16(b, m.Flags)
	b = marshalActions(b, m.Actions)
	return patchLen(b, off)
}

// PacketIn delivers a data-plane frame to the controller.
type PacketIn struct {
	Header
	BufferID uint32
	TotalLen uint16
	InPort   uint16
	Reason   uint8
	Data     []byte
}

// Type implements Message.
func (*PacketIn) Type() MsgType { return TypePacketIn }

// Marshal implements Message.
func (m *PacketIn) Marshal(b []byte) []byte {
	b, off := putHeader(b, TypePacketIn, m.Xid)
	b = binary.BigEndian.AppendUint32(b, m.BufferID)
	b = binary.BigEndian.AppendUint16(b, m.TotalLen)
	b = binary.BigEndian.AppendUint16(b, m.InPort)
	b = append(b, m.Reason, 0)
	b = append(b, m.Data...)
	return patchLen(b, off)
}

// PacketOut injects a frame into the switch's data plane; the probing engine
// sends every probe packet this way.
type PacketOut struct {
	Header
	BufferID uint32
	InPort   uint16
	Actions  []flowtable.Action
	Data     []byte
}

// Type implements Message.
func (*PacketOut) Type() MsgType { return TypePacketOut }

// Marshal implements Message.
func (m *PacketOut) Marshal(b []byte) []byte {
	b, off := putHeader(b, TypePacketOut, m.Xid)
	b = binary.BigEndian.AppendUint32(b, m.BufferID)
	b = binary.BigEndian.AppendUint16(b, m.InPort)
	b = binary.BigEndian.AppendUint16(b, uint16(actionLen*len(m.Actions)))
	b = marshalActions(b, m.Actions)
	b = append(b, m.Data...)
	return patchLen(b, off)
}

// BarrierRequest asks the switch to finish all preceding operations before
// replying — the probing engine's synchronisation point for latency
// measurements.
type BarrierRequest struct{ Header }

// Type implements Message.
func (*BarrierRequest) Type() MsgType { return TypeBarrierRequest }

// Marshal implements Message.
func (m *BarrierRequest) Marshal(b []byte) []byte {
	b, off := putHeader(b, TypeBarrierRequest, m.Xid)
	return patchLen(b, off)
}

// BarrierReply acknowledges a BarrierRequest.
type BarrierReply struct{ Header }

// Type implements Message.
func (*BarrierReply) Type() MsgType { return TypeBarrierReply }

// Marshal implements Message.
func (m *BarrierReply) Marshal(b []byte) []byte {
	b, off := putHeader(b, TypeBarrierReply, m.Xid)
	return patchLen(b, off)
}

// FlowRemoved notifies the controller that a rule expired or was deleted
// (sent only for rules installed with the OFPFF_SEND_FLOW_REM flag).
type FlowRemoved struct {
	Header
	Match        flowtable.Match
	Cookie       uint64
	Priority     uint16
	Reason       uint8
	DurationSec  uint32
	DurationNsec uint32
	IdleTimeout  uint16
	PacketCount  uint64
	ByteCount    uint64
}

// Flow-removed reasons (ofp_flow_removed_reason).
const (
	RemovedIdleTimeout uint8 = 0
	RemovedHardTimeout uint8 = 1
	RemovedDelete      uint8 = 2
)

// FlagSendFlowRem asks the switch to send FLOW_REMOVED when the rule dies.
const FlagSendFlowRem uint16 = 1 << 0

// Type implements Message.
func (*FlowRemoved) Type() MsgType { return TypeFlowRemoved }

// Marshal implements Message.
func (m *FlowRemoved) Marshal(b []byte) []byte {
	b, off := putHeader(b, TypeFlowRemoved, m.Xid)
	b = marshalMatch(b, &m.Match)
	b = binary.BigEndian.AppendUint64(b, m.Cookie)
	b = binary.BigEndian.AppendUint16(b, m.Priority)
	b = append(b, m.Reason, 0)
	b = binary.BigEndian.AppendUint32(b, m.DurationSec)
	b = binary.BigEndian.AppendUint32(b, m.DurationNsec)
	b = binary.BigEndian.AppendUint16(b, m.IdleTimeout)
	b = append(b, 0, 0)
	b = binary.BigEndian.AppendUint64(b, m.PacketCount)
	b = binary.BigEndian.AppendUint64(b, m.ByteCount)
	return patchLen(b, off)
}

func decodeFlowRemoved(m *FlowRemoved, hdr Header, body []byte) error {
	if len(body) < matchLen+40 {
		return ErrTruncated
	}
	match, err := unmarshalMatch(body)
	if err != nil {
		return err
	}
	p := body[matchLen:]
	*m = FlowRemoved{
		Header:       hdr,
		Match:        match,
		Cookie:       binary.BigEndian.Uint64(p[0:8]),
		Priority:     binary.BigEndian.Uint16(p[8:10]),
		Reason:       p[10],
		DurationSec:  binary.BigEndian.Uint32(p[12:16]),
		DurationNsec: binary.BigEndian.Uint32(p[16:20]),
		IdleTimeout:  binary.BigEndian.Uint16(p[20:22]),
		PacketCount:  binary.BigEndian.Uint64(p[24:32]),
		ByteCount:    binary.BigEndian.Uint64(p[32:40]),
	}
	return nil
}

// Error reports a failure; Data holds (a prefix of) the offending message.
type Error struct {
	Header
	ErrType uint16
	Code    uint16
	Data    []byte
}

// Type implements Message.
func (*Error) Type() MsgType { return TypeError }

// Marshal implements Message.
func (m *Error) Marshal(b []byte) []byte {
	b, off := putHeader(b, TypeError, m.Xid)
	b = binary.BigEndian.AppendUint16(b, m.ErrType)
	b = binary.BigEndian.AppendUint16(b, m.Code)
	b = append(b, m.Data...)
	return patchLen(b, off)
}

// Error also satisfies the error interface so controller code can surface
// switch-side rejections directly.
func (m *Error) Error() string {
	return fmt.Sprintf("openflow: error type=%d code=%d", m.ErrType, m.Code)
}

// IsTableFull reports whether the error signals a full flow table — the
// condition Algorithm 1 watches for while doubling rule installations.
func (m *Error) IsTableFull() bool {
	return m.ErrType == ErrTypeFlowModFailed && m.Code == ErrCodeAllTablesFull
}

// ErrTruncated reports a message shorter than its header claims.
var ErrTruncated = errors.New("openflow: truncated message")

// Decode parses a single complete message from data, which must contain
// exactly one message. The result shares no memory with data: every byte a
// message keeps is copied, so it stays valid however data is reused later.
func Decode(data []byte) (Message, error) {
	var fresh Decoder // holds no value yet, so every one it fills is new
	return fresh.decode(data, true)
}

// Decoder decodes frames into values it holds, one per message type, so a
// steady stream of frames decodes without allocating. A message it returns
// aliases the frame it came from and is overwritten by the next frame of its
// type: it is valid until the frame's bytes change or the Decoder decodes
// again, whichever comes first. A caller that keeps a message longer decodes
// the frame with Decode instead. Action lists are the exception: they never
// alias the frame, so a switch may keep a rule's actions (see
// unmarshalActions). A Decoder is not safe for concurrent use.
type Decoder struct {
	hello      *Hello
	echoReq    *EchoRequest
	echoReply  *EchoReply
	featReq    *FeaturesRequest
	featReply  *FeaturesReply
	flowMod    *FlowMod
	packetIn   *PacketIn
	packetOut  *PacketOut
	removed    *FlowRemoved
	portStatus *PortStatus
	getConfig  *GetConfigRequest
	config     *SwitchConfig
	barrierReq *BarrierRequest
	barrierRep *BarrierReply
	errMsg     *Error
	statsReq   *StatsRequest
	statsReply *StatsReply
}

// Decode parses one complete frame into the Decoder's value of its type.
func (d *Decoder) Decode(frame []byte) (Message, error) { return d.decode(frame, false) }

// held returns the value *p holds, creating it on first use.
func held[T any](p **T) *T {
	if *p == nil {
		*p = new(T)
	}
	return *p
}

// keep is how a decoded message holds the bytes b of its frame: copied when
// it must own them, otherwise aliased, capacity-capped so an append by the
// holder cannot write over the frame's next bytes.
func keep(b []byte, own bool) []byte {
	switch {
	case len(b) == 0:
		return nil
	case own:
		return append([]byte(nil), b...)
	}
	return b[:len(b):len(b)]
}

// filled is m once err says it was decoded whole, and no message otherwise.
func filled(m Message, err error) (Message, error) {
	if err != nil {
		return nil, err
	}
	return m, nil
}

// decode is both forms of Decode: own copies every byte a message keeps.
func (d *Decoder) decode(data []byte, own bool) (Message, error) {
	if len(data) < headerLen {
		return nil, ErrTruncated
	}
	if data[0] != Version {
		return nil, fmt.Errorf("openflow: unsupported version 0x%02x", data[0])
	}
	t := MsgType(data[1])
	length := int(binary.BigEndian.Uint16(data[2:4]))
	if length != len(data) {
		return nil, fmt.Errorf("openflow: header length %d != buffer %d", length, len(data))
	}
	hdr := Header{binary.BigEndian.Uint32(data[4:8])}
	body := data[headerLen:]
	switch t {
	case TypeHello:
		m := held(&d.hello)
		*m = Hello{hdr}
		return m, nil
	case TypeEchoRequest:
		m := held(&d.echoReq)
		*m = EchoRequest{hdr, keep(body, own)}
		return m, nil
	case TypeEchoReply:
		m := held(&d.echoReply)
		*m = EchoReply{hdr, keep(body, own)}
		return m, nil
	case TypeFeaturesRequest:
		m := held(&d.featReq)
		*m = FeaturesRequest{hdr}
		return m, nil
	case TypeFeaturesReply:
		m := held(&d.featReply)
		return filled(m, decodeFeaturesReply(m, hdr, body))
	case TypeFlowMod:
		m := held(&d.flowMod)
		return filled(m, decodeFlowMod(m, hdr, body))
	case TypePacketIn:
		m := held(&d.packetIn)
		return filled(m, decodePacketIn(m, hdr, body, own))
	case TypePacketOut:
		m := held(&d.packetOut)
		return filled(m, decodePacketOut(m, hdr, body, own))
	case TypeFlowRemoved:
		m := held(&d.removed)
		return filled(m, decodeFlowRemoved(m, hdr, body))
	case TypePortStatus:
		m := held(&d.portStatus)
		return filled(m, decodePortStatus(m, hdr, body))
	case TypeGetConfigReq:
		m := held(&d.getConfig)
		*m = GetConfigRequest{hdr}
		return m, nil
	case TypeGetConfigReply, TypeSetConfig:
		m := held(&d.config)
		return filled(m, decodeSwitchConfig(m, hdr, body, t == TypeSetConfig))
	case TypeBarrierRequest:
		m := held(&d.barrierReq)
		*m = BarrierRequest{hdr}
		return m, nil
	case TypeBarrierReply:
		m := held(&d.barrierRep)
		*m = BarrierReply{hdr}
		return m, nil
	case TypeError:
		if len(body) < 4 {
			return nil, ErrTruncated
		}
		m := held(&d.errMsg)
		*m = Error{hdr, binary.BigEndian.Uint16(body[0:2]),
			binary.BigEndian.Uint16(body[2:4]), keep(body[4:], own)}
		return m, nil
	case TypeStatsRequest:
		m := held(&d.statsReq)
		return filled(m, decodeStatsRequest(m, hdr, body))
	case TypeStatsReply:
		m := held(&d.statsReply)
		return filled(m, decodeStatsReply(m, hdr, body))
	default:
		return nil, fmt.Errorf("openflow: unsupported message type %d", t)
	}
}

func decodeFeaturesReply(m *FeaturesReply, hdr Header, body []byte) error {
	if len(body) < 24 {
		return ErrTruncated
	}
	*m = FeaturesReply{
		Header:       hdr,
		DatapathID:   binary.BigEndian.Uint64(body[0:8]),
		NBuffers:     binary.BigEndian.Uint32(body[8:12]),
		NTables:      body[12],
		Capabilities: binary.BigEndian.Uint32(body[16:20]),
		Actions:      binary.BigEndian.Uint32(body[20:24]),
	}
	for p := body[24:]; len(p) >= portDescLen; p = p[portDescLen:] {
		m.Ports = append(m.Ports, unmarshalPortDesc(p[:portDescLen]))
	}
	return nil
}

func decodeFlowMod(m *FlowMod, hdr Header, body []byte) error {
	if len(body) < matchLen+24 {
		return ErrTruncated
	}
	match, err := unmarshalMatch(body)
	if err != nil {
		return err
	}
	p := body[matchLen:]
	actions, err := unmarshalActions(p[24:])
	if err != nil {
		return err
	}
	*m = FlowMod{
		Header:      hdr,
		Match:       match,
		Cookie:      binary.BigEndian.Uint64(p[0:8]),
		Command:     FlowModCommand(binary.BigEndian.Uint16(p[8:10])),
		IdleTimeout: binary.BigEndian.Uint16(p[10:12]),
		HardTimeout: binary.BigEndian.Uint16(p[12:14]),
		Priority:    binary.BigEndian.Uint16(p[14:16]),
		BufferID:    binary.BigEndian.Uint32(p[16:20]),
		OutPort:     binary.BigEndian.Uint16(p[20:22]),
		Flags:       binary.BigEndian.Uint16(p[22:24]),
		Actions:     actions,
	}
	return nil
}

func decodePacketIn(m *PacketIn, hdr Header, body []byte, own bool) error {
	if len(body) < 10 {
		return ErrTruncated
	}
	*m = PacketIn{
		Header:   hdr,
		BufferID: binary.BigEndian.Uint32(body[0:4]),
		TotalLen: binary.BigEndian.Uint16(body[4:6]),
		InPort:   binary.BigEndian.Uint16(body[6:8]),
		Reason:   body[8],
		Data:     keep(body[10:], own),
	}
	return nil
}

func decodePacketOut(m *PacketOut, hdr Header, body []byte, own bool) error {
	if len(body) < 8 {
		return ErrTruncated
	}
	alen := int(binary.BigEndian.Uint16(body[6:8]))
	if 8+alen > len(body) {
		return ErrTruncated
	}
	actions, err := unmarshalActions(body[8 : 8+alen])
	if err != nil {
		return err
	}
	*m = PacketOut{
		Header:   hdr,
		BufferID: binary.BigEndian.Uint32(body[0:4]),
		InPort:   binary.BigEndian.Uint16(body[4:6]),
		Actions:  actions,
		Data:     keep(body[8+alen:], own),
	}
	return nil
}
