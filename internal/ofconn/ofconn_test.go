package ofconn

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"tango/internal/core/infer"
	"tango/internal/core/pattern"
	"tango/internal/core/probe"
	"tango/internal/core/sched"
	"tango/internal/flowtable"
	"tango/internal/openflow"
	"tango/internal/packet"
	"tango/internal/simclock"
	"tango/internal/switchsim"
)

// startSwitch serves sw on a loopback listener and returns its address.
func startSwitch(t *testing.T, sw *switchsim.Switch) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go NewServer(ln, sw, ServeOptions{}).Serve()
	return ln.Addr().String()
}

// tableStats fetches the switch's table statistics.
func tableStats(c *Controller) ([]openflow.TableStats, error) {
	req := (&openflow.StatsRequest{StatsType: openflow.StatsTypeTable}).Marshal(nil)
	var reply openflow.Message
	if _, err := c.roundTrip(req, true, func(m openflow.Message) { reply = m }); err != nil {
		return nil, err
	}
	sr, ok := reply.(*openflow.StatsReply)
	if !ok {
		return nil, fmt.Errorf("got %v, want STATS_REPLY", reply.Type())
	}
	return sr.Tables, nil
}

// readMessage reads the next frame from rd and decodes it into a message of
// its own.
func readMessage(rd *openflow.Reader) (openflow.Message, error) {
	frame, err := rd.ReadFrame()
	if err != nil {
		return nil, err
	}
	return openflow.Decode(frame)
}

// fastClock makes simulated latencies nearly instant so TCP tests stay fast.
func fastClock() simclock.Clock { return &simclock.Real{Scale: 1e-6} }

func TestHandshake(t *testing.T) {
	sw := switchsim.New(switchsim.Switch2(), switchsim.WithClock(fastClock()))
	addr := startSwitch(t, sw)
	c, err := DialOptions(addr, ControllerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Features() == nil || c.Features().DatapathID != switchsim.Switch2().DatapathID {
		t.Fatalf("features: %+v", c.Features())
	}
}

func TestFlowModAndProbeOverTCP(t *testing.T) {
	sw := switchsim.New(switchsim.Switch2().WithTCAMCapacity(4), switchsim.WithClock(fastClock()))
	addr := startSwitch(t, sw)
	c, err := DialOptions(addr, ControllerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for id := uint32(0); id < 4; id++ {
		err := c.FlowMod(&openflow.FlowMod{
			Command:  openflow.FlowAdd,
			Match:    flowtable.ExactProbeMatch(id),
			Priority: 10,
			Actions:  flowtable.Output(1),
		})
		if err != nil {
			t.Fatalf("flow %d: %v", id, err)
		}
	}
	// Overflow must surface as a table-full error.
	err = c.FlowMod(&openflow.FlowMod{
		Command:  openflow.FlowAdd,
		Match:    flowtable.ExactProbeMatch(9),
		Priority: 10,
		Actions:  flowtable.Output(1),
	})
	if !errors.Is(err, switchsim.ErrTableFull) {
		t.Fatalf("overflow err = %v, want ErrTableFull", err)
	}

	// Installed flows are forwarded (not punted); unknown flows punt.
	raw, _ := packet.BuildProbe(packet.ProbeSpec{FlowID: 2})
	rtt, punted, err := c.SendProbe(raw, 1)
	if err != nil || punted {
		t.Fatalf("probe: rtt=%v punted=%v err=%v", rtt, punted, err)
	}
	if rtt <= 0 {
		t.Fatal("non-positive RTT")
	}
	raw, _ = packet.BuildProbe(packet.ProbeSpec{FlowID: 99})
	_, punted, err = c.SendProbe(raw, 1)
	if err != nil || !punted {
		t.Fatalf("miss probe: punted=%v err=%v", punted, err)
	}
}

func TestEchoAndStatsOverTCP(t *testing.T) {
	sw := switchsim.New(switchsim.Switch1(), switchsim.WithClock(fastClock()))
	addr := startSwitch(t, sw)
	c, err := DialOptions(addr, ControllerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Echo(); err != nil {
		t.Fatal(err)
	}
	if err := c.FlowMod(&openflow.FlowMod{
		Command:  openflow.FlowAdd,
		Match:    flowtable.ExactProbeMatch(0),
		Priority: 5,
		Actions:  flowtable.Output(2),
	}); err != nil {
		t.Fatal(err)
	}
	tables, err := tableStats(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 { // tcam + software
		t.Fatalf("tables = %+v", tables)
	}
	flows, err := c.FlowStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 1 || flows[0].Priority != 5 {
		t.Fatalf("flows = %+v", flows)
	}
}

// TestFlowStatsInParts: a flow-stats reply of 1,000 rules does not fit one
// frame's 16-bit length. The agent sends it in OFPSF_REPLY_MORE parts,
// FlowStats gathers every rule in table order, and the connection still
// answers an Echo.
func TestFlowStatsInParts(t *testing.T) {
	const n = 1000
	sw := switchsim.New(switchsim.OVS(), switchsim.WithClock(fastClock()))
	c, err := DialOptions(startSwitch(t, sw), ControllerOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fms := make([]*openflow.FlowMod, n)
	for i := range fms {
		fms[i] = &openflow.FlowMod{Command: openflow.FlowAdd, Match: flowtable.ExactProbeMatch(uint32(i)),
			Priority: uint16(i + 1), Actions: flowtable.Output(2)}
	}
	if err := c.FlowMods(fms); err != nil {
		t.Fatal(err)
	}
	if parts := sw.Handle(&openflow.StatsRequest{StatsType: openflow.StatsTypeFlow}); len(parts) < 2 {
		t.Fatalf("the switch answered in %d part(s), want more than one frame's worth", len(parts))
	}
	flows, err := c.FlowStats()
	if err != nil {
		t.Fatalf("FlowStats of %d rules: %v", n, err)
	}
	if len(flows) != n {
		t.Fatalf("FlowStats = %d rules, want %d", len(flows), n)
	}
	seen := make(map[uint16]bool, n)
	for _, f := range flows {
		seen[f.Priority] = true
	}
	if len(seen) != n {
		t.Fatalf("FlowStats listed %d distinct rules, want %d", len(seen), n)
	}
	if _, err := c.Echo(); err != nil {
		t.Fatalf("Echo after a reply in parts: %v", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	sw := switchsim.New(switchsim.OVS(), switchsim.WithClock(fastClock()))
	addr := startSwitch(t, sw)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := DialOptions(addr, ControllerOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < 20; i++ {
				id := uint32(w*1000 + i)
				if err := c.FlowMod(&openflow.FlowMod{
					Command:  openflow.FlowAdd,
					Match:    flowtable.ExactProbeMatch(id),
					Priority: 10,
					Actions:  flowtable.Output(1),
				}); err != nil {
					t.Errorf("worker %d flow %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	_, _, sv := sw.RuleCount()
	if sv != 80 {
		t.Fatalf("installed rules = %d, want 80", sv)
	}
}

func TestClosedConnectionErrors(t *testing.T) {
	sw := switchsim.New(switchsim.Switch2(), switchsim.WithClock(fastClock()))
	addr := startSwitch(t, sw)
	c, err := DialOptions(addr, ControllerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	err = c.FlowMod(&openflow.FlowMod{Command: openflow.FlowAdd, Match: flowtable.ExactProbeMatch(1), Priority: 1})
	if err == nil {
		t.Fatal("flow-mod on closed connection succeeded")
	}
}

func TestNotificationsOverTCP(t *testing.T) {
	sw := switchsim.New(switchsim.Switch2(), switchsim.WithClock(fastClock()))
	addr := startSwitch(t, sw)
	c, err := DialOptions(addr, ControllerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Taking a port down queues a PORT_STATUS, flushed ahead of the next
	// reply and delivered on the notifications channel.
	sw.SetPortDown(7, true)
	if _, err := c.Echo(); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-c.Notifications():
		ps, ok := msg.(*openflow.PortStatus)
		if !ok || ps.Desc.PortNo != 7 {
			t.Fatalf("notification = %+v", msg)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no PORT_STATUS notification")
	}
}

func TestFlowRemovedOverTCP(t *testing.T) {
	clk := simclock.NewVirtual()
	sw := switchsim.New(switchsim.Switch2(), switchsim.WithClock(clk))
	addr := startSwitch(t, sw)
	c, err := DialOptions(addr, ControllerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	err = c.FlowMod(&openflow.FlowMod{
		Command:     openflow.FlowAdd,
		Match:       flowtable.ExactProbeMatch(1),
		Priority:    9,
		HardTimeout: 5,
		Flags:       openflow.FlagSendFlowRem,
		Actions:     flowtable.Output(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	clk.Sleep(6 * time.Second)
	if _, err := c.Echo(); err != nil { // triggers the expiry sweep
		t.Fatal(err)
	}
	select {
	case msg := <-c.Notifications():
		fr, ok := msg.(*openflow.FlowRemoved)
		if !ok || fr.Reason != openflow.RemovedHardTimeout || fr.Priority != 9 {
			t.Fatalf("notification = %+v", msg)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no FLOW_REMOVED notification")
	}
}

func TestFlowModsBatch(t *testing.T) {
	sw := switchsim.New(switchsim.Switch2().WithTCAMCapacity(5), switchsim.WithClock(fastClock()))
	addr := startSwitch(t, sw)
	c, err := DialOptions(addr, ControllerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	mk := func(lo, n int) []*openflow.FlowMod {
		out := make([]*openflow.FlowMod, n)
		for i := range out {
			out[i] = &openflow.FlowMod{
				Command:  openflow.FlowAdd,
				Match:    flowtable.ExactProbeMatch(uint32(lo + i)),
				Priority: 10,
				Actions:  flowtable.Output(1),
			}
		}
		return out
	}
	if err := c.FlowMods(mk(0, 5)); err != nil {
		t.Fatal(err)
	}
	tcam, _, _ := sw.RuleCount()
	if tcam != 5 {
		t.Fatalf("installed = %d, want 5", tcam)
	}
	// Overflowing batch reports the table-full error.
	if err := c.FlowMods(mk(100, 2)); !errors.Is(err, switchsim.ErrTableFull) {
		t.Fatalf("err = %v, want ErrTableFull", err)
	}
}

// TestFleetProbeAndSchedule wires Figure 4 over TCP: a probing engine per
// connected switch fits a score card into the database, and the same
// engines drive the scheduler end to end.
func TestFleetProbeAndSchedule(t *testing.T) {
	db := pattern.NewDB()
	ex := sched.EngineExecutor{}
	for _, name := range []string{"a", "b"} {
		sw := switchsim.New(switchsim.Switch1(), switchsim.WithClock(fastClock()))
		c, err := DialOptions(startSwitch(t, sw), ControllerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		e := probe.NewEngine(c)
		e.SetLabel(name)
		card, err := infer.MeasureCosts(e, name, infer.CostOptions{Samples: 16})
		if err != nil {
			t.Fatal(err)
		}
		if card.Mod <= 0 {
			t.Fatalf("no usable card for %s: %+v", name, card)
		}
		db.PutScore(card)
		ex[name] = e
	}

	// The engines drive the scheduler end to end over TCP.
	g := sched.NewGraph()
	for i := 0; i < 5; i++ {
		g.AddNode(&sched.Request{Switch: "a", Op: pattern.OpAdd,
			FlowID: uint32(900 + i), Priority: uint16(100 + i), HasPriority: true})
		g.AddNode(&sched.Request{Switch: "b", Op: pattern.OpAdd,
			FlowID: uint32(900 + i), Priority: uint16(100 + i), HasPriority: true})
	}
	res, err := sched.Run(g, &sched.Tango{DB: db, SortPriorities: true}, ex, sched.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatalf("makespan = %v", res.Makespan)
	}
}
