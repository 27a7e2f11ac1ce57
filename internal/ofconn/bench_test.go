package ofconn

import (
	"io"
	"log"
	"net"
	"testing"
	"time"

	"tango/internal/openflow"
	"tango/internal/packet"
	"tango/internal/switchsim"
)

// The channel's per-exchange cost over host loopback TCP, each against an
// in-process Server whose switch model's latencies are compressed to
// nanoseconds, so the channel and not the model sets the time:
//
//	go test -run '^$' -bench . -benchmem ./internal/ofconn
//
// One op is one exchange: an ECHO, a serial probe of an installed rule, or a
// 64-op window and its barrier.

// loopbackController serves a Switch1 model on a loopback listener and
// dials it with default options; cleanup closes both ends.
func loopbackController(b *testing.B) *Controller {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	sw := switchsim.New(switchsim.Switch1(), switchsim.WithClock(fastClock()))
	srv := NewServer(ln, sw, ServeOptions{Logger: log.New(io.Discard, "", 0)})
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	c, err := DialOptions(srv.Addr().String(), ControllerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		c.Close()
		_ = srv.Shutdown(time.Second)
		<-served
	})
	return c
}

func BenchmarkEchoLoopback(b *testing.B) {
	c := loopbackController(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Echo(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSendProbeLoopback(b *testing.B) {
	c := loopbackController(b)
	if err := c.FlowMod(probeAdd(1)); err != nil {
		b.Fatal(err)
	}
	data, err := packet.BuildProbe(packet.ProbeSpec{FlowID: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, punted, err := c.SendProbe(data, 1); err != nil || punted {
			b.Fatalf("punted=%v err=%v", punted, err)
		}
	}
}

// BenchmarkFlowModBatch64 re-adds the same 64 rules each op; a re-add
// replaces the rule in place, so the switch model stays the same size.
func BenchmarkFlowModBatch64(b *testing.B) {
	c := loopbackController(b)
	fms := make([]*openflow.FlowMod, asyncWindow)
	for i := range fms {
		fms[i] = probeAdd(uint32(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.FlowModBatch(fms); err != nil {
			b.Fatal(err)
		}
	}
}
