package experiments

import (
	"fmt"
	"time"

	"tango/internal/fleet"
	"tango/internal/ofconn"
)

// fleet.go renders the continuous-inference controller service
// (internal/fleet) as a benchmark table: a sharded fleet of simulated
// switches plus a small real-TCP contingent served through the switchd
// path, probed and re-inferred over repeated rounds. The fold is
// bit-identical at any worker count (gated by TestFleetShardedDifferential),
// so rerunning under GOMAXPROCS=1 must print the same rows, the title's
// worker count and the rate and wall-clock lines aside.

// fleetTCPMembers is the experiment's real-TCP contingent: in-process
// switchd servers dialed over loopback alongside the simulated members.
const fleetTCPMembers = 4

// Fleet runs the continuous-inference fleet for two rounds and tabulates
// the fold.
func Fleet(o Options) *Table {
	fail := func(err error) *Table {
		return &Table{
			Title:  "Fleet service: error",
			Header: []string{"error"},
			Rows:   [][]string{{err.Error()}},
		}
	}
	switches := o.FleetSwitches
	if switches == 0 {
		switches = 64
	}
	tcp, err := fleet.SpawnSimTCP(fleetTCPMembers, 1, 1e-6, ofconn.ControllerOptions{})
	if err != nil {
		return fail(err)
	}
	defer tcp.Close()
	res, err := fleet.Run(fleet.Options{
		Switches: switches,
		Workers:  o.Workers,
		Rounds:   2,
		Seed:     1,
		TCP:      tcp.Fleet,
	})
	if err != nil {
		return fail(err)
	}
	t := &Table{
		Title: fmt.Sprintf("Fleet service: %d sim + %d tcp switches, %d workers, %d rounds",
			res.Switches, res.TCPSwitches, res.Workers, res.Rounds),
		Header: []string{"metric", "value"},
	}
	row := func(k, v string) { t.Rows = append(t.Rows, []string{k, v}) }
	row("inferences", fmt.Sprint(res.Inferences))
	row("inference errors", fmt.Sprint(res.InferErrs))
	row("score cards", fmt.Sprint(res.ScoreCards))
	row("flow mods", fmt.Sprint(res.FlowMods))
	row("probes", fmt.Sprintf("%d (%d punted)", res.Probes, res.Punted))
	row("probe RTT p50", fmt.Sprint(res.P50ProbeRTT))
	row("probe RTT p99", fmt.Sprint(res.P99ProbeRTT))
	row("rtt samples", fmt.Sprint(res.RTTSamples))
	row("switches inferred/sec", fmt.Sprintf("%.1f", res.SwitchesPerSec))
	row("flow-mods/sec", fmt.Sprintf("%.0f", res.FlowModsPerSec))
	row("wall", res.Wall.Round(time.Millisecond).String())
	return t
}
