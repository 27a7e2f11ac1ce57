package openflow

import (
	"encoding/binary"

	"tango/internal/flowtable"
)

// StatsRequest asks the switch for statistics. Only flow and table stats
// carry bodies in this subset.
type StatsRequest struct {
	Header
	StatsType uint16
	Flags     uint16
	// FlowMatch and FlowTableID scope a flow-stats request.
	FlowMatch   flowtable.Match
	FlowTableID uint8
	FlowOutPort uint16
}

// Type implements Message.
func (*StatsRequest) Type() MsgType { return TypeStatsRequest }

// Marshal implements Message.
func (m *StatsRequest) Marshal(b []byte) []byte {
	b, off := putHeader(b, TypeStatsRequest, m.Xid)
	b = binary.BigEndian.AppendUint16(b, m.StatsType)
	b = binary.BigEndian.AppendUint16(b, m.Flags)
	if m.StatsType == StatsTypeFlow || m.StatsType == StatsTypeAggregate {
		b = marshalMatch(b, &m.FlowMatch)
		b = append(b, m.FlowTableID, 0)
		b = binary.BigEndian.AppendUint16(b, m.FlowOutPort)
	}
	return patchLen(b, off)
}

func decodeStatsRequest(m *StatsRequest, hdr Header, body []byte) error {
	if len(body) < 4 {
		return ErrTruncated
	}
	*m = StatsRequest{
		Header:    hdr,
		StatsType: binary.BigEndian.Uint16(body[0:2]),
		Flags:     binary.BigEndian.Uint16(body[2:4]),
	}
	if m.StatsType == StatsTypeFlow || m.StatsType == StatsTypeAggregate {
		if len(body) < 4+matchLen+4 {
			return ErrTruncated
		}
		match, err := unmarshalMatch(body[4:])
		if err != nil {
			return err
		}
		m.FlowMatch = match
		m.FlowTableID = body[4+matchLen]
		m.FlowOutPort = binary.BigEndian.Uint16(body[4+matchLen+2 : 4+matchLen+4])
	}
	return nil
}

// FlowStats is one entry of a flow-stats reply.
type FlowStats struct {
	TableID      uint8
	Match        flowtable.Match
	DurationSec  uint32
	DurationNsec uint32
	Priority     uint16
	IdleTimeout  uint16
	HardTimeout  uint16
	Cookie       uint64
	PacketCount  uint64
	ByteCount    uint64
	Actions      []flowtable.Action
}

// TableStats is one entry of a table-stats reply.
type TableStats struct {
	TableID      uint8
	Name         string
	MaxEntries   uint32
	ActiveCount  uint32
	LookupCount  uint64
	MatchedCount uint64
}

// AggregateStats is the body of an aggregate-stats reply.
type AggregateStats struct {
	PacketCount uint64
	ByteCount   uint64
	FlowCount   uint32
}

// StatsReplyMore is OFPSF_REPLY_MORE: more parts of this reply follow, under
// the same xid.
const StatsReplyMore uint16 = 1

// StatsReply answers a StatsRequest.
type StatsReply struct {
	Header
	StatsType uint16
	Flags     uint16
	Flows     []FlowStats
	Tables    []TableStats
	Aggregate AggregateStats
}

// Type implements Message.
func (*StatsReply) Type() MsgType { return TypeStatsReply }

// Marshal implements Message. A flow-stats reply too long for one frame's
// 16-bit length goes out as consecutive parts under its xid, each as full as
// a frame allows and all but the last flagged StatsReplyMore; a reply that
// fits is one frame.
func (m *StatsReply) Marshal(b []byte) []byte {
	b, off := putHeader(b, TypeStatsReply, m.Xid)
	b = binary.BigEndian.AppendUint16(b, m.StatsType)
	b = binary.BigEndian.AppendUint16(b, m.Flags)
	switch m.StatsType {
	case StatsTypeFlow:
		for i := range m.Flows {
			at := len(b)
			if b = marshalFlowStats(b, &m.Flows[i]); len(b)-off < MaxMessageLen {
				continue
			}
			// The entry overflows this part: close the part before it, and
			// slide it behind the next part's header.
			binary.BigEndian.PutUint16(b[off+10:off+12], m.Flags|StatsReplyMore)
			patchLen(b[:at], off)
			b = append(b, b[at:at+statsReplyHeaderLen]...)
			copy(b[at+statsReplyHeaderLen:], b[at:len(b)-statsReplyHeaderLen])
			copy(b[at:], b[off:off+statsReplyHeaderLen])
			binary.BigEndian.PutUint16(b[at+10:at+12], m.Flags)
			off = at
		}
	case StatsTypeTable:
		for i := range m.Tables {
			b = marshalTableStats(b, &m.Tables[i])
		}
	case StatsTypeAggregate:
		b = binary.BigEndian.AppendUint64(b, m.Aggregate.PacketCount)
		b = binary.BigEndian.AppendUint64(b, m.Aggregate.ByteCount)
		b = binary.BigEndian.AppendUint32(b, m.Aggregate.FlowCount)
		b = append(b, 0, 0, 0, 0)
	}
	return patchLen(b, off)
}

// statsReplyHeaderLen is a stats reply's OpenFlow header and its type and
// flags.
const statsReplyHeaderLen = 12

func marshalFlowStats(b []byte, fs *FlowStats) []byte {
	start := len(b)
	b = append(b, 0, 0) // length placeholder
	b = append(b, fs.TableID, 0)
	b = marshalMatch(b, &fs.Match)
	b = binary.BigEndian.AppendUint32(b, fs.DurationSec)
	b = binary.BigEndian.AppendUint32(b, fs.DurationNsec)
	b = binary.BigEndian.AppendUint16(b, fs.Priority)
	b = binary.BigEndian.AppendUint16(b, fs.IdleTimeout)
	b = binary.BigEndian.AppendUint16(b, fs.HardTimeout)
	b = append(b, 0, 0, 0, 0, 0, 0) // pad[6]
	b = binary.BigEndian.AppendUint64(b, fs.Cookie)
	b = binary.BigEndian.AppendUint64(b, fs.PacketCount)
	b = binary.BigEndian.AppendUint64(b, fs.ByteCount)
	b = marshalActions(b, fs.Actions)
	binary.BigEndian.PutUint16(b[start:start+2], uint16(len(b)-start))
	return b
}

const tableStatsLen = 64

func marshalTableStats(b []byte, ts *TableStats) []byte {
	b = append(b, ts.TableID, 0, 0, 0)
	var name [32]byte
	copy(name[:], ts.Name)
	b = append(b, name[:]...)
	b = binary.BigEndian.AppendUint32(b, wcAll) // wildcards supported
	b = binary.BigEndian.AppendUint32(b, ts.MaxEntries)
	b = binary.BigEndian.AppendUint32(b, ts.ActiveCount)
	b = binary.BigEndian.AppendUint64(b, ts.LookupCount)
	b = binary.BigEndian.AppendUint64(b, ts.MatchedCount)
	return b
}

func decodeStatsReply(m *StatsReply, hdr Header, body []byte) error {
	if len(body) < 4 {
		return ErrTruncated
	}
	*m = StatsReply{
		Header:    hdr,
		StatsType: binary.BigEndian.Uint16(body[0:2]),
		Flags:     binary.BigEndian.Uint16(body[2:4]),
	}
	p := body[4:]
	switch m.StatsType {
	case StatsTypeFlow:
		for len(p) > 0 {
			if len(p) < 2 {
				return ErrTruncated
			}
			elen := int(binary.BigEndian.Uint16(p[0:2]))
			if elen < 88 || elen > len(p) {
				return ErrTruncated
			}
			fs, err := unmarshalFlowStats(p[:elen])
			if err != nil {
				return err
			}
			m.Flows = append(m.Flows, fs)
			p = p[elen:]
		}
	case StatsTypeTable:
		for len(p) >= tableStatsLen {
			m.Tables = append(m.Tables, unmarshalTableStats(p[:tableStatsLen]))
			p = p[tableStatsLen:]
		}
	case StatsTypeAggregate:
		if len(p) < 20 {
			return ErrTruncated
		}
		m.Aggregate = AggregateStats{
			PacketCount: binary.BigEndian.Uint64(p[0:8]),
			ByteCount:   binary.BigEndian.Uint64(p[8:16]),
			FlowCount:   binary.BigEndian.Uint32(p[16:20]),
		}
	}
	return nil
}

func unmarshalFlowStats(p []byte) (FlowStats, error) {
	var fs FlowStats
	fs.TableID = p[2]
	match, err := unmarshalMatch(p[4:])
	if err != nil {
		return fs, err
	}
	fs.Match = match
	q := p[4+matchLen:]
	fs.DurationSec = binary.BigEndian.Uint32(q[0:4])
	fs.DurationNsec = binary.BigEndian.Uint32(q[4:8])
	fs.Priority = binary.BigEndian.Uint16(q[8:10])
	fs.IdleTimeout = binary.BigEndian.Uint16(q[10:12])
	fs.HardTimeout = binary.BigEndian.Uint16(q[12:14])
	fs.Cookie = binary.BigEndian.Uint64(q[20:28])
	fs.PacketCount = binary.BigEndian.Uint64(q[28:36])
	fs.ByteCount = binary.BigEndian.Uint64(q[36:44])
	actions, err := unmarshalActions(q[44:])
	if err != nil {
		return fs, err
	}
	fs.Actions = actions
	return fs, nil
}

func unmarshalTableStats(p []byte) TableStats {
	name := p[4:36]
	end := 0
	for end < len(name) && name[end] != 0 {
		end++
	}
	return TableStats{
		TableID:      p[0],
		Name:         string(name[:end]),
		MaxEntries:   binary.BigEndian.Uint32(p[40:44]),
		ActiveCount:  binary.BigEndian.Uint32(p[44:48]),
		LookupCount:  binary.BigEndian.Uint64(p[48:56]),
		MatchedCount: binary.BigEndian.Uint64(p[56:64]),
	}
}
