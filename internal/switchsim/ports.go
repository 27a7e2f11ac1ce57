package switchsim

import (
	"fmt"

	"tango/internal/openflow"
	"tango/internal/packet"
)

// ports.go models the switch's physical ports: their descriptions in
// FEATURES_REPLY and PORT_STATUS notifications on administrative state
// changes (the event that triggers the paper's link-failure scenario).

// portDescs builds the port description list. Port numbers are 1-based.
func (s *Switch) portDescs() []openflow.PortDesc {
	n := s.profile.numPorts()
	out := make([]openflow.PortDesc, n)
	for i := range out {
		no := uint16(i + 1)
		var state uint32
		if s.portsDown[no] {
			state = openflow.PortStateLinkDown
		}
		out[i] = openflow.PortDesc{
			PortNo: no,
			HWAddr: packet.MACFromUint64(s.profile.DatapathID<<8 | uint64(no)),
			Name:   fmt.Sprintf("eth%d", no),
			State:  state,
			Curr:   1 << 5, // OFPPF_10GB_FD
		}
	}
	return out
}

// SetPortDown changes a port's link state, queueing a PORT_STATUS
// notification. It returns false for an unknown port number.
func (s *Switch) SetPortDown(port uint16, down bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if port == 0 || int(port) > s.profile.numPorts() {
		return false
	}
	if s.portsDown == nil {
		s.portsDown = make(map[uint16]bool)
	}
	if s.portsDown[port] == down {
		return true // no change, no notification
	}
	s.portsDown[port] = down
	var state uint32
	if down {
		state = openflow.PortStateLinkDown
	}
	s.portQueue = append(s.portQueue, &openflow.PortStatus{
		Reason: openflow.PortReasonModify,
		Desc: openflow.PortDesc{
			PortNo: port,
			HWAddr: packet.MACFromUint64(s.profile.DatapathID<<8 | uint64(port)),
			Name:   fmt.Sprintf("eth%d", port),
			State:  state,
			Curr:   1 << 5,
		},
	})
	return true
}

// TakePortStatus drains queued PORT_STATUS notifications.
func (s *Switch) TakePortStatus() []*openflow.PortStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.portQueue
	s.portQueue = nil
	return out
}
