package ofconn

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"tango/internal/faults"
	"tango/internal/flowtable"
	"tango/internal/openflow"
	"tango/internal/packet"
	"tango/internal/switchsim"
)

// splitConn is the agent's end of a connection made of two net.Pipes, one
// per direction, so the peer can half-close: closing the request pipe ends
// the agent's reads while its writes still reach the peer.
type splitConn struct {
	net.Conn          // the request pipe: the agent reads it
	out      net.Conn // the reply pipe: the agent writes it
}

func (c splitConn) Write(b []byte) (int, error) { return c.out.Write(b) }

func (c splitConn) Close() error {
	c.out.Close()
	return c.Conn.Close()
}

// fuzzStream is a controller's side of a whole conversation: every request
// kind the agent answers.
func fuzzStream() []byte {
	probe, _ := packet.BuildProbe(packet.ProbeSpec{FlowID: 1})
	var b []byte
	for _, m := range []openflow.Message{
		&openflow.Hello{Header: openflow.Header{Xid: 1}},
		&openflow.FeaturesRequest{Header: openflow.Header{Xid: 2}},
		&openflow.FlowMod{Header: openflow.Header{Xid: 3}, Command: openflow.FlowAdd,
			Match: flowtable.ExactProbeMatch(1), Priority: 9, Actions: flowtable.Output(2)},
		&openflow.BarrierRequest{Header: openflow.Header{Xid: 4}},
		&openflow.PacketOut{Header: openflow.Header{Xid: 5}, BufferID: 0xffffffff, InPort: 1, Data: probe},
		&openflow.EchoRequest{Header: openflow.Header{Xid: 6}, Data: []byte("tango")},
		&openflow.StatsRequest{Header: openflow.Header{Xid: 7}, StatsType: openflow.StatsTypeFlow, FlowTableID: 0xff, FlowOutPort: openflow.PortNone},
		&openflow.FlowMod{Header: openflow.Header{Xid: 8}, Command: openflow.FlowDeleteStrict,
			Match: flowtable.ExactProbeMatch(1), Priority: 9},
		&openflow.GetConfigRequest{Header: openflow.Header{Xid: 9}},
	} {
		b = m.Marshal(b)
	}
	return b
}

// streamEnd is how the agent loop must end on stream: the first error a
// frame-by-frame decode of it meets, or io.EOF when every frame decodes.
func streamEnd(stream []byte) error {
	for len(stream) > 0 {
		if len(stream) < 8 {
			return io.ErrUnexpectedEOF
		}
		n := int(binary.BigEndian.Uint16(stream[2:4]))
		switch {
		case n < 8:
			return fmt.Errorf("openflow: implausible message length %d", n)
		case len(stream) < n:
			return io.ErrUnexpectedEOF
		}
		if _, err := openflow.Decode(stream[:n]); err != nil {
			return err
		}
		stream = stream[n:]
	}
	return io.EOF
}

// fuzzSwitch and fuzzInjector are the switch and fault injector both agents
// of FuzzServerConn start from; a zero seed means no faults.
func fuzzSwitch() *switchsim.Switch { return switchsim.New(switchsim.Switch2().WithTCAMCapacity(16)) }

func fuzzInjector(seed int64) *faults.Injector {
	if seed == 0 {
		return nil
	}
	inj := faults.NewInjector(faults.Config{Seed: seed, Drop: 0.1, Duplicate: 0.1,
		Reorder: 0.1, Reset: 0.05, Overflow: 0.1})
	inj.SetTelemetry(nil)
	return inj
}

// messageAgent is the reference for what the agent writes: the loop as it
// was when the switch answered with messages. Each whole frame of stream, up
// to the first that does not decode, is decoded into a message of its own,
// answered by Handle, perturbed as a message list and marshalled.
func messageAgent(stream []byte, faultSeed int64) []byte {
	sw, inj := fuzzSwitch(), fuzzInjector(faultSeed)
	out := (&openflow.Hello{}).Marshal(nil)
	var held []openflow.Message
	for len(stream) >= 8 {
		n := int(binary.BigEndian.Uint16(stream[2:4]))
		if n < 8 || n > len(stream) {
			break
		}
		msg, err := openflow.Decode(stream[:n])
		if err != nil {
			break
		}
		stream = stream[n:]
		var dec faults.Decision
		if !handshakeMsg(msg) {
			dec = inj.Decide()
		}
		var replies []openflow.Message
		apply := true
		if dec.Fire {
			switch dec.Kind {
			case faults.KindDrop:
				if dec.AckLoss {
					sw.Handle(msg)
				}
				apply = false
			case faults.KindReset:
				sw.Reset()
			case faults.KindOverflow:
				if fm, ok := msg.(*openflow.FlowMod); ok {
					replies = []openflow.Message{&openflow.Error{Header: fm.Header,
						ErrType: openflow.ErrTypeFlowModFailed, Code: openflow.ErrCodeAllTablesFull}}
					apply = false
				}
			}
		}
		if apply {
			replies = sw.Handle(msg)
		}
		if dec.Fire && dec.Kind == faults.KindDuplicate {
			replies = append(replies, replies...)
		}
		if dec.Fire && dec.Kind == faults.KindReorder && held == nil {
			held = replies
			continue
		}
		replies = append(replies, held...)
		held = nil
		for _, r := range replies {
			out = r.Marshal(out)
		}
	}
	return out
}

// FuzzServerConn drives the agent loop with an arbitrary byte stream, cut
// into arbitrary writes, then half-closes it; a non-zero faultSeed puts a
// fault injector in the loop. The loop must end with the error the stream
// itself dictates — io.EOF after a whole last frame, io.ErrUnexpectedEOF
// inside one, else the decode error of the first bad frame — leave no
// goroutine behind, write only whole frames that decode, and write exactly
// the bytes messageAgent does. Replies are written from buffers the agent
// reuses across requests and requests are decoded where they were read, so
// this is the agent's ownership rule under test.
func FuzzServerConn(f *testing.F) {
	stream := fuzzStream()
	f.Add(stream, []byte{0}, int64(0))
	f.Add(stream, []byte{5, 60, 200}, int64(7))
	f.Add(stream[:len(stream)-3], []byte{17}, int64(0))
	f.Add(append(stream[:40:40], 1, 200, 0, 8, 0, 0, 0, 1), []byte{}, int64(3))
	f.Add([]byte{openflow.Version, byte(openflow.TypeHello), 0, 4, 0, 0, 0, 0}, []byte{1}, int64(0))

	f.Fuzz(func(t *testing.T, stream, cuts []byte, faultSeed int64) {
		reqPeer, reqAgent := net.Pipe()
		outAgent, outPeer := net.Pipe()
		sw, inj := fuzzSwitch(), fuzzInjector(faultSeed)
		ended := make(chan error, 1)
		go func() {
			conn := splitConn{Conn: reqAgent, out: outAgent}
			ended <- handleConn(conn, sw, serverTelemetry{}, inj)
			conn.Close()
		}()
		written := make(chan []byte, 1)
		go func() {
			b, _ := io.ReadAll(outPeer)
			written <- b
		}()

		for rest, i := stream, 0; len(rest) > 0; i++ {
			n := len(rest)
			if len(cuts) > 0 {
				n = min(n, int(cuts[i%len(cuts)])+1)
			}
			if _, err := reqPeer.Write(rest[:n]); err != nil {
				break // the agent stopped reading: its loop has ended
			}
			rest = rest[n:]
		}
		reqPeer.Close() // the half-close: the agent's replies still flow

		var err error
		select {
		case err = <-ended:
		case <-time.After(10 * time.Second):
			t.Fatal("the agent loop did not end after the half-close")
		}
		var out []byte
		select {
		case out = <-written:
		case <-time.After(10 * time.Second):
			t.Fatal("the agent's reply pipe was never closed")
		}
		outPeer.Close()

		want := streamEnd(stream)
		if errors.Is(want, io.EOF) || errors.Is(want, io.ErrUnexpectedEOF) {
			if !errors.Is(err, want) {
				t.Fatalf("the loop ended with %v, want %v", err, want)
			}
		} else if err == nil || err.Error() != want.Error() {
			t.Fatalf("the loop ended with %v, want the decode error %v", err, want)
		}
		if want := messageAgent(stream, faultSeed); !bytes.Equal(out, want) {
			t.Fatalf("the agent wrote\n%x\nthe message agent\n%x", out, want)
		}
		for len(out) > 0 {
			if len(out) < 8 {
				t.Fatalf("the agent wrote a cut header %x", out)
			}
			n := int(binary.BigEndian.Uint16(out[2:4]))
			if n < 8 || n > len(out) {
				t.Fatalf("the agent wrote a frame of length %d with %d bytes left", n, len(out))
			}
			if _, err := openflow.Decode(out[:n]); err != nil {
				t.Fatalf("the agent wrote %x, which does not decode: %v", out[:n], err)
			}
			out = out[n:]
		}
	})
}
