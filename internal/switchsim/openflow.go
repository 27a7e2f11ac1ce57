package switchsim

import "tango/internal/openflow"

// Handle processes one OpenFlow message the way the emulated switch's agent
// would, returning any reply messages. The TCP daemon (internal/ofconn)
// feeds its connection through this; in-process callers may use the typed
// methods directly.
//
// PacketOut frames are run through the forwarding pipeline. Frames that are
// forwarded out a port are reflected back to the controller as a PacketIn
// with reason ACTION — emulating the probing measurement host that Tango
// attaches behind the switch — so a controller can measure data-path RTT
// entirely over the OpenFlow channel. Punted frames come back with reason
// NO_MATCH.
func (s *Switch) Handle(msg openflow.Message) []openflow.Message {
	s.ExpireNow() // any agent activity sweeps due timeouts
	replies := s.handle(msg)
	// Pending async notifications (FLOW_REMOVED, PORT_STATUS) ride ahead of
	// the reply, which is how a single-threaded agent flushes its queue.
	removed := s.TakeFlowRemoved()
	ports := s.TakePortStatus()
	if len(removed) == 0 && len(ports) == 0 {
		return replies
	}
	out := make([]openflow.Message, 0, len(removed)+len(ports)+len(replies))
	for _, fr := range removed {
		out = append(out, fr)
	}
	for _, ps := range ports {
		out = append(out, ps)
	}
	return append(out, replies...)
}

func (s *Switch) handle(msg openflow.Message) []openflow.Message {
	switch m := msg.(type) {
	case *openflow.Hello:
		return []openflow.Message{&openflow.Hello{Header: openflow.Header{Xid: m.Xid}}}

	case *openflow.EchoRequest:
		return []openflow.Message{&openflow.EchoReply{Header: openflow.Header{Xid: m.Xid}, Data: m.Data}}

	case *openflow.FeaturesRequest:
		return []openflow.Message{s.featuresReply(m.Xid)}

	case *openflow.FlowMod:
		if err := s.FlowMod(m); err != nil {
			return []openflow.Message{&openflow.Error{
				Header:  openflow.Header{Xid: m.Xid},
				ErrType: openflow.ErrTypeFlowModFailed,
				Code:    openflow.ErrCodeAllTablesFull,
			}}
		}
		return nil

	case *openflow.BarrierRequest:
		// The emulator applies operations synchronously, so by the time the
		// barrier is read every preceding op has completed.
		return []openflow.Message{&openflow.BarrierReply{Header: openflow.Header{Xid: m.Xid}}}

	case *openflow.PacketOut:
		res, err := s.SendPacket(m.Data, m.InPort)
		if err != nil {
			return []openflow.Message{&openflow.Error{
				Header:  openflow.Header{Xid: m.Xid},
				ErrType: openflow.ErrTypeBadRequest,
			}}
		}
		reason := openflow.ReasonAction
		if res.Path == PathControl {
			reason = openflow.ReasonNoMatch
		}
		return []openflow.Message{&openflow.PacketIn{
			Header:   openflow.Header{Xid: m.Xid},
			BufferID: 0xffffffff,
			TotalLen: uint16(len(m.Data)),
			InPort:   m.InPort,
			Reason:   reason,
			Data:     m.Data,
		}}

	case *openflow.StatsRequest:
		return []openflow.Message{s.statsReply(m)}

	case *openflow.GetConfigRequest:
		s.mu.Lock()
		cfg := s.config
		s.mu.Unlock()
		cfg.SetXID(m.Xid)
		return []openflow.Message{&cfg}

	case *openflow.SwitchConfig:
		if m.Set {
			s.mu.Lock()
			s.config.Flags = m.Flags
			s.config.MissSendLen = m.MissSendLen
			s.mu.Unlock()
		}
		return nil

	default:
		return nil
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

func (s *Switch) statsReply(req *openflow.StatsRequest) *openflow.StatsReply {
	rep := &openflow.StatsReply{
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
		if s.kernel != nil {
			maxEntries := s.profile.softwareCap()
			if s.profile.KernelCapacity > 0 {
				maxEntries = s.profile.KernelCapacity
			}
			rep.Tables = append(rep.Tables, openflow.TableStats{
				TableID: 2, Name: "kernel",
				MaxEntries:  uint32(maxEntries),
				ActiveCount: uint32(len(s.kernel)),
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
			if s.entries[r.Ext].inTCAM {
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
