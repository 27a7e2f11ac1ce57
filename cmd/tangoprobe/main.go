// Command tangoprobe fingerprints a switch with Tango's inference pipeline:
// flow-table layer sizes (Algorithm 1), microflow-caching detection, cache
// replacement policy (Algorithm 2), and the control-channel cost card.
//
// Probe an emulated profile in process:
//
//	tangoprobe -profile switch1
//
// or a live OpenFlow endpoint (e.g. one served by switchd):
//
//	tangoprobe -connect 127.0.0.1:6633 -max-rules 2048
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"tango"
	"tango/internal/core/infer"
	"tango/internal/core/pattern"
	"tango/internal/core/probe"
	"tango/internal/ofconn"
	"tango/internal/switchsim"
	"tango/internal/telemetry"
)

func main() {
	var (
		profile  = flag.String("profile", "", "emulated profile: ovs, switch1, switch2, switch3, fig5")
		policy   = flag.String("policy", "", "override cache policy for emulated profile: fifo, lru, lfu, priority")
		connect  = flag.String("connect", "", "probe a live OpenFlow switch at this TCP address instead")
		maxRules = flag.Int("max-rules", 0, "size-probing budget (0 = default)")
		seed     = flag.Int64("seed", 1, "probing RNG seed")
		skipPol  = flag.Bool("skip-policy", false, "skip the cache-policy probe")
		curves   = flag.Bool("curves", false, "also measure priority-ordering installation curves")
		channel  = flag.Bool("channel", false, "also run the Oflops-style channel benchmark")
		timeout  = flag.Duration("timeout", 10*time.Second, "per-reply timeout for -connect (0 = wait forever)")
		retry    = flag.Bool("retry", true, "retry transient channel failures for -connect (bounded backoff)")
		tcli     telemetry.CLI
	)
	tcli.BindFlags(flag.CommandLine)
	flag.Parse()

	// Install the process-wide telemetry defaults (registry, tracer, flight
	// recorder, optional HTTP exporter) before any engine or switch is
	// constructed, so everything below binds to them.
	flush, err := tcli.Setup()
	if err != nil {
		log.Fatalf("tangoprobe: %v", err)
	}

	var (
		dev      tango.Device
		name     string
		hardened probe.Retry
	)
	switch {
	case *connect != "":
		c, err := ofconn.DialOptions(*connect, ofconn.ControllerOptions{Timeout: *timeout})
		if err != nil {
			log.Fatalf("tangoprobe: %v", err)
		}
		defer c.Close()
		name = fmt.Sprintf("dpid-%#x", c.Features().DatapathID)
		dev = c
		if *retry {
			hardened = probe.DefaultRetry
		}
	case *profile != "":
		prof, err := switchsim.ProfileByName(*profile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tangoprobe:", err)
			os.Exit(2)
		}
		if *policy != "" {
			p, err := policyByName(*policy)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			prof = prof.WithPolicy(p)
		}
		name = prof.Name
		dev = probe.SimDevice{S: tango.NewEmulatedSwitch(prof, switchsim.WithSeed(*seed))}
	default:
		fmt.Fprintln(os.Stderr, "tangoprobe: need -profile or -connect")
		os.Exit(2)
	}

	start := time.Now()
	model, err := tango.Inspect(dev, tango.InspectOptions{
		Name:       name,
		Seed:       *seed,
		MaxRules:   *maxRules,
		SkipPolicy: *skipPol,
		Retry:      hardened,
	})
	if err != nil {
		log.Fatalf("tangoprobe: %v", err)
	}
	fmt.Println(model)
	fmt.Printf("layers:\n")
	for i, l := range model.Sizes.Levels {
		fmt.Printf("  level %d: ~%d entries [%d, %d] (census %d), mean RTT %v\n",
			i, l.Size, l.Lo, l.Hi, l.Census, l.MeanRTT.Round(10*time.Microsecond))
	}
	if model.Policy != nil {
		for i, r := range model.Policy.Rounds {
			fmt.Printf("  policy round %d: correlations=%v\n", i, r.Correlations)
		}
	} else if !*skipPol {
		why := "fastest tier is the whole table"
		if model.Microflow {
			why = "microflow"
		} else if len(model.Sizes.Levels) < 2 {
			why = "single tier"
		}
		fmt.Printf("  policy: not probed (%s)\n", why)
	}
	fmt.Printf("probing wall time: %v (rules=%d, probes=%d)\n",
		time.Since(start).Round(time.Millisecond),
		model.Sizes.RulesInstalled, model.Sizes.ProbesSent)

	if *channel {
		rep, err := probe.BenchmarkChannel(tango.NewEngine(dev))
		if err != nil {
			log.Fatalf("tangoprobe: channel benchmark: %v", err)
		}
		fmt.Println(rep)
	}

	if *curves {
		e := tango.NewEngine(dev)
		cs, err := infer.MeasurePriorityCurves(e, infer.CurveOptions{Seed: *seed})
		if err != nil {
			log.Fatalf("tangoprobe: curves: %v", err)
		}
		fmt.Println("priority-ordering installation curves:")
		for _, order := range pattern.Orders {
			fmt.Printf("  %-10s", order.String())
			for _, pt := range cs[order] {
				fmt.Printf("  n=%d:%v", pt.N, pt.Total.Round(time.Millisecond))
			}
			fmt.Println()
		}
	}

	if err := flush(); err != nil {
		log.Fatalf("tangoprobe: %v", err)
	}
}

func policyByName(name string) (switchsim.Policy, error) {
	switch name {
	case "fifo":
		return switchsim.PolicyFIFO, nil
	case "lru":
		return switchsim.PolicyLRU, nil
	case "lfu":
		return switchsim.PolicyLFU, nil
	case "priority":
		return switchsim.PolicyPriority, nil
	default:
		return switchsim.Policy{}, fmt.Errorf("tangoprobe: unknown policy %q", name)
	}
}
