package openflow

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"reflect"
	"testing"

	"tango/internal/flowtable"
)

// fuzzSeeds is one message of every shape the decoder knows.
func fuzzSeeds() []Message {
	return []Message{
		&Hello{Header{1}},
		&EchoRequest{Header{2}, []byte("x")},
		&FeaturesReply{Header: Header{3}, DatapathID: 9, NTables: 2},
		&FlowMod{Header: Header{4}, Match: flowtable.ExactProbeMatch(5), Command: FlowAdd, Priority: 7, Actions: flowtable.Output(1)},
		&PacketIn{Header: Header{5}, Reason: ReasonNoMatch, Data: []byte{1, 2, 3}},
		&PacketOut{Header: Header{6}, Actions: flowtable.Output(2), Data: []byte{9}},
		&Error{Header{7}, ErrTypeFlowModFailed, ErrCodeAllTablesFull, nil},
		&StatsRequest{Header: Header{8}, StatsType: StatsTypeFlow, FlowMatch: flowtable.L3ProbeMatch(1)},
		&StatsReply{Header: Header{9}, StatsType: StatsTypeTable, Tables: []TableStats{{TableID: 1, Name: "t"}}},
		&FlowRemoved{Header: Header{10}, Match: flowtable.L2ProbeMatch(2), Reason: RemovedDelete},
		&BarrierReply{Header{11}},
	}
}

// FuzzDecode drives the message decoder with arbitrary bytes. The decoder
// must never panic, any message it accepts must re-encode to bytes the
// decoder accepts again with an identical second decode (decode∘encode is
// a projection), and an accepted message must own its bytes: overwriting
// the input afterwards must not change it, which is what lets Reader decode
// out of a buffer it refills.
func FuzzDecode(f *testing.F) {
	for _, m := range fuzzSeeds() {
		f.Add(m.Marshal(nil))
	}
	f.Add([]byte{Version, 99, 0, 8, 0, 0, 0, 0})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		in := bytes.Clone(data) // the engine's bytes must not be modified
		msg, err := Decode(in)
		if err != nil {
			return
		}
		re := msg.Marshal(nil)
		for i := range in {
			in[i] = ^in[i]
		}
		if kept := msg.Marshal(nil); !bytes.Equal(re, kept) {
			t.Fatalf("%T aliases its input:\nbefore %x\n after %x", msg, re, kept)
		}
		msg2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v (first decode %T)", err, msg)
		}
		re2 := msg2.Marshal(nil)
		if !bytes.Equal(re, re2) {
			t.Fatalf("encode not idempotent:\n first %x\nsecond %x", re, re2)
		}
	})
}

// FuzzReader feeds the framing reader an arbitrary byte stream cut into
// arbitrary segments (the cut sizes are drawn from the fuzz input too). It
// must never panic and must be indistinguishable from decoding the stream
// frame by frame: the same messages, then the same first error, with exactly
// the returned frames consumed however the bytes arrived. A Decoder's value
// of each frame must equal Decode's, and the messages Decode returned must
// survive the refills that follow them, as documented — the frames and the
// Decoder's values need not.
func FuzzReader(f *testing.F) {
	var stream []byte
	for _, m := range fuzzSeeds() {
		stream = m.Marshal(stream)
	}
	f.Add(stream, []byte{0})
	f.Add(stream, []byte{3, 40, 7})
	f.Add(stream, []byte{})
	f.Add(stream[:len(stream)-3], []byte{11})
	f.Add([]byte{Version, byte(TypeHello), 0, 4, 0, 0, 0, 0}, []byte{1})

	f.Fuzz(func(t *testing.T, stream, cuts []byte) {
		src := &segments{}
		for rest, i := stream, 0; len(rest) > 0; i++ {
			n := len(rest)
			if len(cuts) > 0 {
				n = min(n, int(cuts[i%len(cuts)])+1)
			}
			src.segs = append(src.segs, rest[:n])
			rest = rest[n:]
		}
		rd := NewReader(src)
		var dec Decoder
		var got []Message
		var wires [][]byte
		off := 0 // the reference's position in stream
		for {
			var want Message
			var wantErr error
			rest := stream[off:]
			switch {
			case len(rest) == 0:
				wantErr = io.EOF
			case len(rest) < headerLen:
				wantErr = io.ErrUnexpectedEOF
			default:
				n := int(binary.BigEndian.Uint16(rest[2:4]))
				switch {
				case n < headerLen:
					wantErr = fmt.Errorf("openflow: implausible message length %d", n)
				case len(rest) < n:
					wantErr = io.ErrUnexpectedEOF
				default:
					want, wantErr = Decode(rest[:n])
					off += n
				}
			}
			frame, err := rd.ReadFrame()
			var msg, scratch Message
			if err == nil {
				scratch, _ = dec.Decode(frame)
				msg, err = Decode(frame)
			}
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("message %d: err = %v, want %v", len(got), err, wantErr)
			}
			if unread := len(stream) - off; rd.br.Buffered()+src.pending() != unread {
				t.Fatalf("message %d: %d bytes left unconsumed, want %d", len(got), rd.br.Buffered()+src.pending(), unread)
			}
			if err != nil {
				break
			}
			if !reflect.DeepEqual(msg, want) {
				t.Fatalf("message %d: got %+v, want %+v", len(got), msg, want)
			}
			if !reflect.DeepEqual(scratch, msg) {
				t.Fatalf("message %d: Decoder got %+v, Decode %+v", len(got), scratch, msg)
			}
			got = append(got, msg)
			wires = append(wires, msg.Marshal(nil))
		}
		for i, m := range got {
			if now := m.Marshal(nil); !bytes.Equal(now, wires[i]) {
				t.Fatalf("message %d changed after later reads:\n  was %x\n  now %x", i, wires[i], now)
			}
		}
	})
}
