package openflow

import (
	"bytes"
	"encoding/binary"
	"io"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"

	"tango/internal/flowtable"
	"tango/internal/packet"
)

// roundTrip marshals m, decodes the bytes, and returns the decoded message.
func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	raw := m.Marshal(nil)
	if int(binary.BigEndian.Uint16(raw[2:4])) != len(raw) {
		t.Fatalf("%T: header length %d != encoded %d",
			m, binary.BigEndian.Uint16(raw[2:4]), len(raw))
	}
	got, err := Decode(raw)
	if err != nil {
		t.Fatalf("%T: decode: %v", m, err)
	}
	return got
}

func TestHelloEchoBarrierRoundTrip(t *testing.T) {
	for _, m := range []Message{
		&Hello{Header{1}},
		&EchoRequest{Header{2}, []byte("ping")},
		&EchoReply{Header{3}, []byte("pong")},
		&FeaturesRequest{Header{4}},
		&BarrierRequest{Header{5}},
		&BarrierReply{Header{6}},
	} {
		got := roundTrip(t, m)
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%T round trip: got %+v want %+v", m, got, m)
		}
	}
}

func TestFeaturesReplyRoundTrip(t *testing.T) {
	m := &FeaturesReply{
		Header:       Header{9},
		DatapathID:   0xdeadbeefcafe,
		NBuffers:     256,
		NTables:      2,
		Capabilities: 0x87,
		Actions:      0xfff,
	}
	got := roundTrip(t, m)
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("got %+v want %+v", got, m)
	}
}

func TestFlowModRoundTrip(t *testing.T) {
	m := &FlowMod{
		Header:      Header{42},
		Match:       flowtable.ExactProbeMatch(1234),
		Cookie:      0xfeed,
		Command:     FlowAdd,
		IdleTimeout: 30,
		HardTimeout: 60,
		Priority:    500,
		BufferID:    0xffffffff,
		OutPort:     PortNone,
		Actions:     flowtable.Output(3),
	}
	got := roundTrip(t, m).(*FlowMod)
	if !got.Match.Same(&m.Match) {
		t.Fatalf("match: got %s want %s", got.Match.String(), m.Match.String())
	}
	got.Match = m.Match // compare the rest structurally
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("got %+v want %+v", got, m)
	}
}

func TestFlowModControllerAction(t *testing.T) {
	m := &FlowMod{
		Header:  Header{1},
		Command: FlowAdd,
		Actions: []flowtable.Action{{Type: flowtable.ActionController}},
	}
	got := roundTrip(t, m).(*FlowMod)
	if len(got.Actions) != 1 || got.Actions[0].Type != flowtable.ActionController {
		t.Fatalf("actions = %+v", got.Actions)
	}
}

func TestFlowModDropNoActions(t *testing.T) {
	m := &FlowMod{Header: Header{1}, Command: FlowAdd}
	got := roundTrip(t, m).(*FlowMod)
	if len(got.Actions) != 0 {
		t.Fatalf("drop rule decoded with actions: %+v", got.Actions)
	}
}

func TestMatchPrefixRoundTrip(t *testing.T) {
	m := flowtable.Match{
		Fields: flowtable.FieldNwSrc | flowtable.FieldNwDst,
		NwSrc:  netip.MustParsePrefix("10.0.0.0/8"),
		NwDst:  netip.MustParsePrefix("192.168.7.0/24"),
	}
	raw := marshalMatch(nil, &m)
	if len(raw) != matchLen {
		t.Fatalf("match encodes to %d bytes, want %d", len(raw), matchLen)
	}
	got, err := unmarshalMatch(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Same(&m) {
		t.Fatalf("got %s want %s", got.String(), m.String())
	}
}

func TestMatchWildcardAllRoundTrip(t *testing.T) {
	var m flowtable.Match
	got, err := unmarshalMatch(marshalMatch(nil, &m))
	if err != nil {
		t.Fatal(err)
	}
	if got.Fields != 0 {
		t.Fatalf("wildcard-all decoded with fields %b", got.Fields)
	}
}

func TestPacketInOutRoundTrip(t *testing.T) {
	frame, err := packet.BuildProbe(packet.ProbeSpec{FlowID: 5})
	if err != nil {
		t.Fatal(err)
	}
	pin := &PacketIn{
		Header:   Header{7},
		BufferID: 0xffffffff,
		TotalLen: uint16(len(frame)),
		InPort:   2,
		Reason:   ReasonNoMatch,
		Data:     frame,
	}
	got := roundTrip(t, pin)
	if !reflect.DeepEqual(got, pin) {
		t.Fatalf("PacketIn: got %+v want %+v", got, pin)
	}

	pout := &PacketOut{
		Header:   Header{8},
		BufferID: 0xffffffff,
		InPort:   PortNone,
		Actions:  flowtable.Output(1),
		Data:     frame,
	}
	got2 := roundTrip(t, pout).(*PacketOut)
	if !bytes.Equal(got2.Data, frame) {
		t.Fatal("PacketOut data corrupted")
	}
	if len(got2.Actions) != 1 || got2.Actions[0].Port != 1 {
		t.Fatalf("PacketOut actions: %+v", got2.Actions)
	}
}

func TestFlowRemovedRoundTrip(t *testing.T) {
	m := &FlowRemoved{
		Header:       Header{21},
		Match:        flowtable.ExactProbeMatch(9),
		Cookie:       0xabc,
		Priority:     700,
		Reason:       RemovedIdleTimeout,
		DurationSec:  12,
		DurationNsec: 500,
		IdleTimeout:  30,
		PacketCount:  99,
		ByteCount:    9900,
	}
	got := roundTrip(t, m).(*FlowRemoved)
	if !got.Match.Same(&m.Match) {
		t.Fatalf("match: %s", got.Match.String())
	}
	got.Match = m.Match
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("got %+v want %+v", got, m)
	}
}

func TestErrorRoundTrip(t *testing.T) {
	e := &Error{Header{3}, ErrTypeFlowModFailed, ErrCodeAllTablesFull, []byte{1, 2, 3}}
	got := roundTrip(t, e).(*Error)
	if !reflect.DeepEqual(got, e) {
		t.Fatalf("got %+v want %+v", got, e)
	}
	if !got.IsTableFull() {
		t.Fatal("IsTableFull = false")
	}
	if got.Error() == "" {
		t.Fatal("empty error string")
	}
	other := &Error{Header{3}, ErrTypeBadRequest, 0, nil}
	if other.IsTableFull() {
		t.Fatal("bad request reported as table full")
	}
}

func TestStatsFlowRoundTrip(t *testing.T) {
	req := &StatsRequest{
		Header:      Header{11},
		StatsType:   StatsTypeFlow,
		FlowMatch:   flowtable.L3ProbeMatch(9),
		FlowTableID: 0xff,
		FlowOutPort: PortNone,
	}
	gotReq := roundTrip(t, req).(*StatsRequest)
	if gotReq.StatsType != StatsTypeFlow || !gotReq.FlowMatch.Same(&req.FlowMatch) {
		t.Fatalf("request: %+v", gotReq)
	}

	rep := &StatsReply{
		Header:    Header{11},
		StatsType: StatsTypeFlow,
		Flows: []FlowStats{
			{
				TableID:     0,
				Match:       flowtable.ExactProbeMatch(1),
				DurationSec: 10,
				Priority:    100,
				Cookie:      7,
				PacketCount: 55,
				ByteCount:   5500,
				Actions:     flowtable.Output(2),
			},
			{
				TableID:  1,
				Match:    flowtable.L2ProbeMatch(2),
				Priority: 50,
			},
		},
	}
	gotRep := roundTrip(t, rep).(*StatsReply)
	if len(gotRep.Flows) != 2 {
		t.Fatalf("flows = %d, want 2", len(gotRep.Flows))
	}
	f0 := gotRep.Flows[0]
	if !f0.Match.Same(&rep.Flows[0].Match) || f0.PacketCount != 55 || f0.ByteCount != 5500 ||
		f0.Priority != 100 || f0.Cookie != 7 || len(f0.Actions) != 1 {
		t.Fatalf("flow 0: %+v", f0)
	}
}

// TestStatsFlowReplyInParts: a flow-stats reply too long for one frame goes
// out as OFPSF_REPLY_MORE parts under its xid — every part a frame whose
// length field holds, each as full as it can be without splitting an entry,
// all but the last flagged — and the parts' flows, in order, are the reply's.
func TestStatsFlowReplyInParts(t *testing.T) {
	rep := &StatsReply{Header: Header{13}, StatsType: StatsTypeFlow, Flags: 4}
	for i := 0; i < 1000; i++ {
		fs := FlowStats{Match: flowtable.ExactProbeMatch(uint32(i)), Priority: uint16(i), Cookie: uint64(i)}
		if i%3 == 0 {
			fs.Actions = flowtable.Output(uint16(i%7 + 1))
		}
		rep.Flows = append(rep.Flows, fs)
	}
	rd := NewReader(bytes.NewReader(rep.Marshal(nil)))
	var flows []FlowStats
	var sizes, firstEntry []int // per part: its length, and its first entry's
	var flagged []bool
	for {
		frame, err := rd.ReadFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("part %d: %v", len(sizes), err)
		}
		m, err := Decode(frame)
		if err != nil {
			t.Fatalf("part %d: %v", len(sizes), err)
		}
		part := m.(*StatsReply)
		if part.Xid != rep.Xid || part.StatsType != StatsTypeFlow || part.Flags&^StatsReplyMore != rep.Flags {
			t.Fatalf("part %d: xid %d type %d flags %#x", len(sizes), part.Xid, part.StatsType, part.Flags)
		}
		sizes = append(sizes, len(frame))
		firstEntry = append(firstEntry, int(binary.BigEndian.Uint16(frame[12:14])))
		flagged = append(flagged, part.Flags&StatsReplyMore != 0)
		flows = append(flows, part.Flows...)
	}
	if len(sizes) < 2 {
		t.Fatalf("%d flows went out as %d frames, want parts", len(rep.Flows), len(sizes))
	}
	for i, n := range sizes {
		last := i == len(sizes)-1
		if flagged[i] == last {
			t.Fatalf("part %d of %d: flagged more = %v", i, len(sizes), flagged[i])
		}
		if !last && n+firstEntry[i+1] <= 0xffff {
			t.Fatalf("part %d is %d bytes: the next part's %d-byte first entry fit", i, n, firstEntry[i+1])
		}
	}
	if len(flows) != len(rep.Flows) {
		t.Fatalf("parts carry %d flows, want %d", len(flows), len(rep.Flows))
	}
	for i := range flows {
		got, want := &flows[i], &rep.Flows[i]
		if !got.Match.Same(&want.Match) || got.Priority != want.Priority || got.Cookie != want.Cookie ||
			len(got.Actions) != len(want.Actions) {
			t.Fatalf("flow %d: %+v, want %+v", i, *got, *want)
		}
	}
}

func TestStatsTableRoundTrip(t *testing.T) {
	rep := &StatsReply{
		Header:    Header{12},
		StatsType: StatsTypeTable,
		Tables: []TableStats{
			{TableID: 0, Name: "tcam", MaxEntries: 2048, ActiveCount: 17, LookupCount: 100, MatchedCount: 90},
			{TableID: 1, Name: "software", MaxEntries: 1 << 20},
		},
	}
	got := roundTrip(t, rep).(*StatsReply)
	if !reflect.DeepEqual(got, rep) {
		t.Fatalf("got %+v want %+v", got, rep)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Fatal("nil accepted")
	}
	if _, err := Decode([]byte{0x04, 0, 0, 8, 0, 0, 0, 0}); err == nil {
		t.Fatal("wrong version accepted")
	}
	// Length field mismatching buffer size.
	raw := (&Hello{}).Marshal(nil)
	raw[3] = 99
	if _, err := Decode(raw); err == nil {
		t.Fatal("length mismatch accepted")
	}
	// Unknown type.
	raw = (&Hello{}).Marshal(nil)
	raw[1] = 200
	if _, err := Decode(raw); err == nil {
		t.Fatal("unknown type accepted")
	}
}

func TestReadWriteMessageStream(t *testing.T) {
	var buf bytes.Buffer
	msgs := []Message{
		&Hello{Header{1}},
		&FlowMod{Header: Header{2}, Match: flowtable.ExactProbeMatch(3), Command: FlowAdd, Priority: 9, Actions: flowtable.Output(1)},
		&BarrierRequest{Header{3}},
		&EchoRequest{Header{4}, []byte("x")},
	}
	for _, m := range msgs {
		buf.Write(m.Marshal(nil))
	}
	rd := NewReader(&buf)
	var dec Decoder
	for i, want := range msgs {
		frame, err := rd.ReadFrame()
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		got, err := dec.Decode(frame)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("message %d: got %+v want %+v", i, got, want)
		}
	}
	if _, err := rd.ReadFrame(); err != io.EOF {
		t.Fatalf("read past end = %v, want io.EOF", err)
	}
}

func TestReadMessageRejectsBadLength(t *testing.T) {
	// Header claiming a 4-byte total length is impossible.
	bad := []byte{Version, byte(TypeHello), 0, 4, 0, 0, 0, 0}
	if _, err := NewReader(bytes.NewReader(bad)).ReadFrame(); err == nil {
		t.Fatal("accepted length < header size")
	}
}

// Property: FlowMod round-trips for arbitrary probe-rule contents.
func TestFlowModRoundTripProperty(t *testing.T) {
	f := func(id uint32, prio uint16, cmd uint8, port uint16, cookie uint64) bool {
		if port == PortController {
			port-- // an output to the controller port decodes as a controller action
		}
		m := &FlowMod{
			Header:   Header{id},
			Match:    flowtable.ExactProbeMatch(id % 100000),
			Cookie:   cookie,
			Command:  FlowModCommand(cmd % 5),
			Priority: prio,
			Actions:  flowtable.Output(port),
		}
		got, err := Decode(m.Marshal(nil))
		if err != nil {
			return false
		}
		fm, ok := got.(*FlowMod)
		if !ok {
			return false
		}
		return fm.Match.Same(&m.Match) && fm.Priority == prio &&
			fm.Command == m.Command && fm.Cookie == cookie &&
			len(fm.Actions) == 1 && fm.Actions[0].Port == m.Actions[0].Port
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the decoder never panics on arbitrary bytes with a plausible
// header.
func TestDecodeFuzzProperty(t *testing.T) {
	f := func(body []byte, typ uint8) bool {
		raw := make([]byte, 0, len(body)+8)
		raw = append(raw, Version, typ%20, 0, 0, 0, 0, 0, 1)
		raw = append(raw, body...)
		binary.BigEndian.PutUint16(raw[2:4], uint16(len(raw)))
		_, _ = Decode(raw) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 800}); err != nil {
		t.Fatal(err)
	}
}

func TestMsgTypeString(t *testing.T) {
	if TypeFlowMod.String() != "FLOW_MOD" || MsgType(250).String() != "UNKNOWN" {
		t.Fatal("MsgType.String broken")
	}
	if FlowAdd.String() != "ADD" || FlowModCommand(99).String() != "UNKNOWN" {
		t.Fatal("FlowModCommand.String broken")
	}
}

func TestPortMessagesRoundTrip(t *testing.T) {
	fr := &FeaturesReply{
		Header:     Header{5},
		DatapathID: 7,
		NTables:    2,
		Ports: []PortDesc{
			{PortNo: 1, HWAddr: packet.MACFromUint64(0x10), Name: "eth1", Curr: 1 << 5},
			{PortNo: 2, HWAddr: packet.MACFromUint64(0x20), Name: "eth2", State: PortStateLinkDown},
		},
	}
	got := roundTrip(t, fr).(*FeaturesReply)
	if !reflect.DeepEqual(got, fr) {
		t.Fatalf("got %+v want %+v", got, fr)
	}

	ps := &PortStatus{
		Header: Header{6},
		Reason: PortReasonModify,
		Desc:   PortDesc{PortNo: 3, Name: "eth3", State: PortStateLinkDown},
	}
	got2 := roundTrip(t, ps).(*PortStatus)
	if !reflect.DeepEqual(got2, ps) {
		t.Fatalf("got %+v want %+v", got2, ps)
	}
}

func TestConfigMessagesRoundTrip(t *testing.T) {
	for _, set := range []bool{false, true} {
		m := &SwitchConfig{Header: Header{7}, Set: set, Flags: 2, MissSendLen: 128}
		got := roundTrip(t, m).(*SwitchConfig)
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("set=%v: got %+v want %+v", set, got, m)
		}
	}
	gr := &GetConfigRequest{Header{8}}
	if got := roundTrip(t, gr); !reflect.DeepEqual(got, gr) {
		t.Fatalf("got %+v", got)
	}
}

func TestAggregateStatsRoundTrip(t *testing.T) {
	m := &StatsReply{
		Header:    Header{9},
		StatsType: StatsTypeAggregate,
		Aggregate: AggregateStats{PacketCount: 100, ByteCount: 6400, FlowCount: 7},
	}
	got := roundTrip(t, m).(*StatsReply)
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("got %+v want %+v", got, m)
	}
}
