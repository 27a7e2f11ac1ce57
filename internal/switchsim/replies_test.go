package switchsim

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"tango/internal/flowtable"
	"tango/internal/openflow"
	"tango/internal/packet"
)

// replyStep is one request of replyScript: before runs first (a clock
// advance, a port change), then msg is handled.
type replyStep struct {
	name   string
	before func(s *Switch)
	msg    openflow.Message
}

// replyScript drives one switch through every message kind the agent
// answers, and some it does not: accepted and rejected flow-mods, hits,
// misses and an undecodable probe, each stats kind, the config pair, and
// FLOW_REMOVED and PORT_STATUS queued ahead of a reply.
func replyScript() []replyStep {
	hit, _ := packet.BuildProbe(packet.ProbeSpec{FlowID: 1})
	miss, _ := packet.BuildProbe(packet.ProbeSpec{FlowID: 50})
	add := func(id uint32, xid uint32) *openflow.FlowMod {
		return &openflow.FlowMod{Header: openflow.Header{Xid: xid}, Command: openflow.FlowAdd,
			Match: flowtable.ExactProbeMatch(id), Priority: 5, Actions: flowtable.Output(1)}
	}
	timed := add(2, 6)
	timed.HardTimeout, timed.Flags, timed.Cookie = 5, openflow.FlagSendFlowRem, 0xc0ffee
	flowStats := &openflow.StatsRequest{Header: openflow.Header{Xid: 14}, StatsType: openflow.StatsTypeFlow,
		FlowTableID: 0xff, FlowOutPort: openflow.PortNone}
	return []replyStep{
		{name: "hello", msg: &openflow.Hello{Header: openflow.Header{Xid: 1}}},
		{name: "echo", msg: &openflow.EchoRequest{Header: openflow.Header{Xid: 2}, Data: []byte("tango")}},
		{name: "echo-empty", msg: &openflow.EchoRequest{Header: openflow.Header{Xid: 3}}},
		{name: "features", msg: &openflow.FeaturesRequest{Header: openflow.Header{Xid: 4}}},
		{name: "flowmod-accepted", msg: add(1, 5)},
		{name: "flowmod-timed", msg: timed},
		{name: "flowmod-third", msg: add(3, 7)},
		{name: "flowmod-rejected", msg: add(4, 8)},
		{name: "barrier", msg: &openflow.BarrierRequest{Header: openflow.Header{Xid: 9}}},
		{name: "packetout-hit", msg: &openflow.PacketOut{Header: openflow.Header{Xid: 10}, BufferID: 0xffffffff, InPort: 1, Data: hit}},
		{name: "packetout-miss", msg: &openflow.PacketOut{Header: openflow.Header{Xid: 11}, BufferID: 0xffffffff, InPort: 2, Data: miss}},
		{name: "packetout-garbage", msg: &openflow.PacketOut{Header: openflow.Header{Xid: 12}, InPort: 1, Data: []byte{1, 2, 3}}},
		{name: "stats-table", msg: &openflow.StatsRequest{Header: openflow.Header{Xid: 13}, StatsType: openflow.StatsTypeTable}},
		{name: "stats-flow", msg: flowStats},
		{name: "stats-aggregate", msg: &openflow.StatsRequest{Header: openflow.Header{Xid: 15}, StatsType: openflow.StatsTypeAggregate}},
		{name: "get-config", msg: &openflow.GetConfigRequest{Header: openflow.Header{Xid: 16}}},
		{name: "set-config", msg: &openflow.SwitchConfig{Header: openflow.Header{Xid: 17}, Set: true, Flags: 1, MissSendLen: 256}},
		{name: "get-config-after-set", msg: &openflow.GetConfigRequest{Header: openflow.Header{Xid: 18}}},
		{name: "barrier-after-expiry", before: func(s *Switch) { s.Clock().Sleep(6 * time.Second) },
			msg: &openflow.BarrierRequest{Header: openflow.Header{Xid: 19}}},
		{name: "echo-after-port-changes", before: func(s *Switch) { s.SetPortDown(2, true); s.SetPortDown(1, true); s.SetPortDown(1, false) },
			msg: &openflow.EchoRequest{Header: openflow.Header{Xid: 20}, Data: []byte{0}}},
		{name: "features-port-down", msg: &openflow.FeaturesRequest{Header: openflow.Header{Xid: 21}}},
		{name: "unsolicited-echo-reply", msg: &openflow.EchoReply{Header: openflow.Header{Xid: 22}}},
		{name: "barrier-reply", msg: &openflow.BarrierReply{Header: openflow.Header{Xid: 23}}},
	}
}

// replyProfiles are the switches replyScript runs on: a three-entry TCAM,
// so the fourth add is rejected, and a TCAM with a software tier behind it.
func replyProfiles() []Profile {
	return []Profile{Switch2().WithTCAMCapacity(3), Switch1()}
}

// TestAppendRepliesBytes pins the agent's wire output for replyScript: every
// reply must be byte for byte what the agent wrote when Handle built reply
// messages that the agent marshalled (testdata/replies.golden, recorded that
// way), and Handle must be the decode of AppendReplies.
func TestAppendRepliesBytes(t *testing.T) {
	raw, err := os.ReadFile("testdata/replies.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(string(raw)))
	for sc.Scan() {
		name, wire, _ := strings.Cut(sc.Text(), " ")
		want[name] = wire
	}
	for _, p := range replyProfiles() {
		s, twin := New(p), New(p)
		for _, step := range replyScript() {
			key := fmt.Sprintf("%s/%s", p.Name, step.name)
			w, ok := want[key]
			if !ok {
				t.Fatalf("%s: no golden bytes", key)
			}
			if step.before != nil {
				step.before(s)
				step.before(twin)
			}
			got := s.AppendReplies(nil, step.msg)
			if hex.EncodeToString(got) != w {
				t.Errorf("%s:\n got %x\nwant %s", key, got, w)
			}
			var again []byte
			for _, m := range twin.Handle(step.msg) {
				again = m.Marshal(again)
			}
			if !bytes.Equal(again, got) {
				t.Errorf("%s: Handle re-marshals to %x, AppendReplies wrote %x", key, again, got)
			}
		}
	}
}
