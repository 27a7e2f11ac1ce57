package tango_test

import (
	"fmt"

	"tango"
	"tango/internal/core/pattern"
	"tango/internal/switchsim"
)

// ExampleInspect fingerprints an emulated FIFO-cache switch: Tango infers
// the flow-table layer sizes and the cache-replacement policy purely from
// OpenFlow commands and probe-packet round-trip times.
func ExampleInspect() {
	profile := switchsim.TestSwitch(128, tango.PolicyFIFO)
	profile.SoftwareCapacity = 384
	sw := tango.NewEmulatedSwitch(profile, switchsim.WithSeed(1))

	model, err := tango.Inspect(tango.SimDevice{S: sw}, tango.InspectOptions{
		Name: "example-switch",
		Seed: 1,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("layers: %d\n", len(model.Sizes.Levels))
	fmt.Printf("fast-layer size: %d\n", model.Sizes.Levels[0].Census)
	fmt.Printf("policy: %s\n", model.Policy.Policy)
	// Output:
	// layers: 2
	// fast-layer size: 128
	// policy: insertion(keep-low)
}

// ExampleSchedule drains a dependency DAG of switch requests with the
// measurement-driven Tango scheduler: deletes and modifies are grouped and
// additions installed in ascending priority order, which the hardware
// switch model rewards.
func ExampleSchedule() {
	// A score card as probing would fit it for a hardware switch.
	db := tango.NewDB()
	db.PutScore(&tango.ScoreCard{
		SwitchName:      "hw1",
		AddSamePriority: 400e3, // 400µs, in nanoseconds
		AddNewPriority:  900e3,
		ShiftPerEntry:   14e3,
		Mod:             6e6,
		Del:             2e6,
	})

	g := tango.NewRequestGraph()
	for i := 0; i < 4; i++ {
		g.AddNode(&tango.Request{
			Switch: "hw1", Op: pattern.OpAdd,
			FlowID:      uint32(i),
			Priority:    uint16(400 - i*100), // arrives in descending order
			HasPriority: true,
		})
	}
	engines := map[string]*tango.Engine{
		"hw1": tango.EngineFor(tango.NewEmulatedSwitch(tango.ProfileSwitch1())),
	}
	if _, err := tango.Schedule(g, tango.TangoScheduler(db), engines); err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("schedule complete")
	// Output:
	// schedule complete
}
