package switchsim

import (
	"encoding/binary"
	"fmt"
	"slices"

	"tango/internal/openflow"
)

// AppendReplies processes one OpenFlow message the way the emulated switch's
// agent would and appends the wire form of every message it draws to b: the
// pending asynchronous notifications (FLOW_REMOVED, then PORT_STATUS) ahead of
// the reply, which is how a single-threaded agent flushes its queue. It is the
// one place replies are made; the TCP agent (internal/ofconn) writes them
// straight from its out buffer. msg is read only during the call: what the
// switch keeps of it is copied, a flow-mod's actions excepted, which are
// shared and never written.
//
// PacketOut frames are run through the forwarding pipeline. Frames that are
// forwarded out a port are reflected back to the controller as a PacketIn
// with reason ACTION — emulating the probing measurement host that Tango
// attaches behind the switch — so a controller can measure data-path RTT
// entirely over the OpenFlow channel. Punted frames come back with reason
// NO_MATCH.
func (s *Switch) AppendReplies(b []byte, msg openflow.Message) []byte {
	s.ExpireNow() // any agent activity sweeps due timeouts
	start := len(b)
	b = s.appendReply(b, msg)
	removed := s.TakeFlowRemoved()
	ports := s.TakePortStatus()
	if len(removed) == 0 && len(ports) == 0 {
		return b
	}
	reply := len(b) - start
	for _, fr := range removed {
		b = fr.Marshal(b)
	}
	for _, ps := range ports {
		b = ps.Marshal(b)
	}
	// Rotate the reply behind the notifications handling it queued.
	slices.Reverse(b[start : start+reply])
	slices.Reverse(b[start+reply:])
	slices.Reverse(b[start:])
	return b
}

// Handle is AppendReplies for callers that want messages: the replies
// decoded, each caller-owned. A flow-stats reply too long for one frame
// comes back as its OFPSF_REPLY_MORE parts, one message each.
func (s *Switch) Handle(msg openflow.Message) []openflow.Message {
	var out []openflow.Message
	for b := s.AppendReplies(nil, msg); len(b) > 0; {
		n := int(binary.BigEndian.Uint16(b[2:4])) // the header's length field
		m, err := openflow.Decode(b[:n])
		if err != nil {
			panic(fmt.Sprintf("switchsim: a reply the switch encoded does not decode: %v", err))
		}
		out = append(out, m)
		b = b[n:]
	}
	return out
}

// appendReply applies msg and appends its reply, if it draws one. Each reply
// is built on the stack and marshalled in place.
func (s *Switch) appendReply(b []byte, msg openflow.Message) []byte {
	switch m := msg.(type) {
	case *openflow.Hello:
		return (&openflow.Hello{Header: m.Header}).Marshal(b)

	case *openflow.EchoRequest:
		return (&openflow.EchoReply{Header: m.Header, Data: m.Data}).Marshal(b)

	case *openflow.FeaturesRequest:
		return s.featuresReply(m.Xid).Marshal(b)

	case *openflow.FlowMod:
		if err := s.FlowMod(m); err != nil {
			return (&openflow.Error{
				Header:  m.Header,
				ErrType: openflow.ErrTypeFlowModFailed,
				Code:    openflow.ErrCodeAllTablesFull,
			}).Marshal(b)
		}
		return b

	case *openflow.BarrierRequest:
		// The emulator applies operations synchronously, so by the time the
		// barrier is read every preceding op has completed.
		return (&openflow.BarrierReply{Header: m.Header}).Marshal(b)

	case *openflow.PacketOut:
		res, err := s.SendPacket(m.Data, m.InPort)
		if err != nil {
			return (&openflow.Error{Header: m.Header, ErrType: openflow.ErrTypeBadRequest}).Marshal(b)
		}
		reason := openflow.ReasonAction
		if res.Path == PathControl {
			reason = openflow.ReasonNoMatch
		}
		return (&openflow.PacketIn{
			Header:   m.Header,
			BufferID: 0xffffffff,
			TotalLen: uint16(len(m.Data)),
			InPort:   m.InPort,
			Reason:   reason,
			Data:     m.Data,
		}).Marshal(b)

	case *openflow.StatsRequest:
		rep := s.statsReply(m)
		return rep.Marshal(b)

	case *openflow.GetConfigRequest:
		s.mu.Lock()
		cfg := s.config
		s.mu.Unlock()
		cfg.SetXID(m.Xid)
		return cfg.Marshal(b)

	case *openflow.SwitchConfig:
		if m.Set {
			s.mu.Lock()
			s.config.Flags = m.Flags
			s.config.MissSendLen = m.MissSendLen
			s.mu.Unlock()
		}
		return b

	default:
		return b
	}
}

func (s *Switch) featuresReply(xid uint32) *openflow.FeaturesReply {
	var ntables uint8
	switch s.profile.Kind {
	case ManageTCAMOnly:
		ntables = 1
	case ManagePolicyCache:
		ntables = 2
	case ManageMicroflow:
		ntables = 2
	}
	s.mu.Lock()
	ports := s.portDescs()
	s.mu.Unlock()
	return &openflow.FeaturesReply{
		Header:       openflow.Header{Xid: xid},
		DatapathID:   s.profile.DatapathID,
		NBuffers:     256,
		NTables:      ntables,
		Capabilities: 1, // OFPC_FLOW_STATS
		Actions:      1 << openflow.ActionTypeOutput,
		Ports:        ports,
	}
}

func (s *Switch) statsReply(req *openflow.StatsRequest) openflow.StatsReply {
	rep := openflow.StatsReply{
		Header:    openflow.Header{Xid: req.Xid},
		StatsType: req.StatsType,
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch req.StatsType {
	case openflow.StatsTypeTable:
		if s.tcam != nil {
			rep.Tables = append(rep.Tables, openflow.TableStats{
				TableID: 0, Name: "tcam",
				MaxEntries:  uint32(s.profile.TCAM.CapacityNarrow),
				ActiveCount: uint32(s.tcam.Len()),
			})
		}
		if s.profile.Kind != ManageTCAMOnly {
			rep.Tables = append(rep.Tables, openflow.TableStats{
				TableID: 1, Name: "software",
				MaxEntries:  uint32(s.profile.softwareCap()),
				ActiveCount: uint32(s.softLen()),
			})
		}
		if s.kslots != nil {
			maxEntries := s.profile.softwareCap()
			if s.profile.KernelCapacity > 0 {
				maxEntries = s.profile.KernelCapacity
			}
			rep.Tables = append(rep.Tables, openflow.TableStats{
				TableID: 2, Name: "kernel",
				MaxEntries:  uint32(maxEntries),
				ActiveCount: uint32(s.kernelLen),
			})
		}
	case openflow.StatsTypeAggregate:
		agg := &rep.Aggregate
		for _, r := range s.rules.Rules() {
			if req.FlowMatch.Fields != 0 && !req.FlowMatch.Covers(&r.Match) {
				continue
			}
			agg.FlowCount++
			agg.PacketCount += r.Packets
			agg.ByteCount += r.Bytes
		}
	case openflow.StatsTypeFlow:
		for _, r := range s.rules.Rules() {
			if req.FlowMatch.Fields != 0 && !req.FlowMatch.Covers(&r.Match) {
				continue
			}
			tableID := uint8(1) // the software tier
			if s.ent(r.Ext).inTCAM {
				tableID = 0
			}
			rep.Flows = append(rep.Flows, openflow.FlowStats{
				TableID:     tableID,
				Match:       r.Match,
				Priority:    r.Priority,
				Cookie:      r.Cookie,
				PacketCount: r.Packets,
				ByteCount:   r.Bytes,
				Actions:     r.Actions,
			})
		}
	}
	return rep
}
