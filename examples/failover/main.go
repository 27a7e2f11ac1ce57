// Event-driven failover: a controller holds OpenFlow connections to the
// three testbed switches, a link goes down, and the PORT_STATUS
// notification triggers a Tango-scheduled reroute — the full loop the
// paper's link-failure scenario implies, over real TCP sockets.
//
//	go run ./examples/failover
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"tango"
	"tango/internal/core/infer"
	"tango/internal/core/pattern"
	"tango/internal/core/probe"
	"tango/internal/core/sched"
	"tango/internal/flowtable"
	"tango/internal/ofconn"
	"tango/internal/openflow"
	"tango/internal/packet"
	"tango/internal/simclock"
	"tango/internal/switchsim"
	"tango/internal/topo"
)

const flows = 120

func main() {
	// Bring up the triangle testbed as TCP OpenFlow endpoints.
	profiles := map[string]switchsim.Profile{
		"s1": switchsim.Switch1(),
		"s2": switchsim.Switch1(),
		"s3": switchsim.Switch3().WithTCAMCapacity(2048),
	}
	switches := map[string]*switchsim.Switch{}
	ctrls := map[string]*ofconn.Controller{}
	for name, prof := range profiles {
		sw := switchsim.New(prof,
			switchsim.WithClock(&simclock.Real{Scale: 1e-4}),
			switchsim.WithSeed(4))
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer ln.Close()
		go ofconn.Serve(ln, sw)
		c, err := ofconn.Dial(ln.Addr().String())
		if err != nil {
			log.Fatal(err)
		}
		defer c.Close()
		switches[name] = sw
		ctrls[name] = c
		fmt.Printf("connected to %s (dpid %#x, %d ports)\n",
			name, c.Features().DatapathID, len(c.Features().Ports))
	}

	// Baseline state: flows pinned on the s1→s2 direct path.
	var baseline []*openflow.FlowMod
	for f := 0; f < flows; f++ {
		baseline = append(baseline, &openflow.FlowMod{
			Command:  openflow.FlowAdd,
			Match:    flowtable.ExactProbeMatch(uint32(f)),
			Priority: 100,
			Actions:  flowtable.Output(2), // port 2 = direct link to s2
		})
	}
	if err := ctrls["s1"].FlowMods(baseline); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("installed %d baseline flows on s1 (batched, one barrier)\n\n", flows)

	// Probe cost cards up front, as Tango does before optimizing.
	db := tango.NewDB()
	for name, prof := range profiles {
		e := probe.NewEngine(probe.SimDevice{S: switchsim.New(prof, switchsim.WithSeed(7))})
		card, err := infer.MeasureCosts(e, name, infer.CostOptions{})
		if err != nil {
			log.Fatal(err)
		}
		db.PutScore(card)
	}

	// The event: port 2 on s1 (the s1–s2 link) goes down.
	net1 := topo.Triangle()
	fmt.Println("failing link s1-s2 ...")
	switches["s1"].SetPortDown(2, true)
	// Nudge the agent so it flushes the notification. The switch sends it
	// ahead of the echo reply, so the echo reads it on the way and it is
	// queued by the time Echo returns.
	if _, err := ctrls["s1"].Echo(); err != nil {
		log.Fatal(err)
	}
	select {
	case msg := <-ctrls["s1"].Notifications():
		ps, ok := msg.(*openflow.PortStatus)
		if !ok {
			log.Fatalf("unexpected notification %T", msg)
		}
		fmt.Printf("PORT_STATUS: port %d of s1 link down=%v\n",
			ps.Desc.PortNo, ps.Desc.State&openflow.PortStateLinkDown != 0)
		net1.RemoveLink("s1", "s2")
	default:
		log.Fatal("no PORT_STATUS notification ahead of the echo reply")
	}
	newPath := net1.ShortestPath("s1", "s2")
	fmt.Printf("recomputed path: %v\n\n", newPath)

	// Build the reroute DAG (reverse-path: transit rules on s3 first) and
	// schedule it with Tango against the live switches.
	g := sched.NewGraph()
	for f := 0; f < flows; f++ {
		add := g.AddNode(&sched.Request{
			Switch: "s3", Op: pattern.OpAdd,
			FlowID: uint32(10000 + f), Priority: uint16(1000 + f%97), HasPriority: true,
		})
		mod := g.AddNode(&sched.Request{
			Switch: "s1", Op: pattern.OpMod,
			FlowID: uint32(f), Priority: 100, HasPriority: true,
		})
		if err := g.AddEdge(add, mod); err != nil {
			log.Fatal(err)
		}
	}
	engines := map[string]*tango.Engine{}
	for name, c := range ctrls {
		engines[name] = tango.NewEngine(c)
	}
	start := time.Now()
	d, err := tango.Schedule(g, tango.TangoScheduler(db), engines)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rerouted %d flows via %v in %v wall time (%v measured on-switch)\n",
		flows, newPath, time.Since(start).Round(time.Millisecond), d.Round(time.Millisecond))

	// Confirm the data plane: a rerouted flow now forwards on s3.
	raw, _ := buildProbe(10000)
	_, punted, err := ctrls["s3"].SendProbe(raw, 1)
	if err != nil || punted {
		log.Fatalf("transit rule not active on s3: punted=%v err=%v", punted, err)
	}
	fmt.Println("verified: transit rule active on s3, failover complete")
}

func buildProbe(id uint32) ([]byte, error) {
	return packet.BuildProbe(packet.ProbeSpec{FlowID: id})
}
