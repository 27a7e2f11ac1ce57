// Command tangobench regenerates every table and figure of the paper's
// evaluation from the emulated testbed and prints the rows/series the paper
// reports. With -out it also writes one whitespace-separated .dat file per
// series, ready for gnuplot.
//
//	tangobench                  # run everything
//	tangobench -only f3c,f10    # run a subset
//	tangobench -runs 3          # fewer repeat runs for the 10-run figures
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"tango/internal/experiments"
	"tango/internal/faults"
	"tango/internal/parallel"
	"tango/internal/telemetry"
)

// experiment is one runnable table/figure driver.
type experiment struct {
	id   string
	desc string
	run  func(runs int) []fmt.Stringer
}

func catalog(opts experiments.Options, faultSpec string) []experiment {
	tab := func(f func() *experiments.Table) func(int) []fmt.Stringer {
		return func(int) []fmt.Stringer { return []fmt.Stringer{f()} }
	}
	sized := func(f func(experiments.Options) *experiments.Table) func(int) []fmt.Stringer {
		return func(int) []fmt.Stringer { return []fmt.Stringer{f(opts)} }
	}
	figs := func(f func(int) []*experiments.Figure) func(int) []fmt.Stringer {
		return func(runs int) []fmt.Stringer {
			var out []fmt.Stringer
			for _, fg := range f(runs) {
				out = append(out, fg)
			}
			return out
		}
	}
	return []experiment{
		{"table1", "Table 1: table types and sizes", sized(experiments.Table1)},
		{"f2", "Figure 2: delay tiers on OVS / Switch#1 / Switch#2", func(int) []fmt.Stringer {
			var out []fmt.Stringer
			for _, fg := range experiments.Figure2() {
				out = append(out, fg)
			}
			return out
		}},
		{"f3a", "Figure 3(a): add/mod/del permutations", func(runs int) []fmt.Stringer {
			return []fmt.Stringer{experiments.Figure3a(runs)}
		}},
		{"f3b", "Figure 3(b): add vs modify", func(int) []fmt.Stringer {
			return []fmt.Stringer{experiments.Figure3b(nil)}
		}},
		{"f3c", "Figure 3(c): priority orderings", func(int) []fmt.Stringer {
			return []fmt.Stringer{experiments.Figure3c(nil)}
		}},
		{"f5", "Figure 5: RTT tiers on Switch#2", func(int) []fmt.Stringer {
			return []fmt.Stringer{experiments.Figure5()}
		}},
		{"f6", "Figure 6: policy-probe initialization pattern", func(int) []fmt.Stringer {
			return []fmt.Stringer{experiments.Figure6()}
		}},
		{"sizeacc", "Size-inference accuracy (<5% headline)", sized(experiments.SizeAccuracy)},
		{"policyacc", "Policy-inference accuracy", sized(experiments.PolicyAccuracy)},
		{"reported", "Switch-reported vs inferred capacity", sized(experiments.ReportedVsInferred)},
		{"qos", "Cache policy × traffic: fast-path hit rates", tab(experiments.CacheHitRates)},
		{"table2", "Table 2: ClassBench files", tab(experiments.Table2)},
		{"f8", "Figure 8: OVS scheduling scenarios", figs(experiments.Figure8)},
		{"f9", "Figure 9: Switch#1 scheduling scenarios", figs(experiments.Figure9)},
		{"f10", "Figure 10: testbed LF/TE scenarios", tab(experiments.Figure10)},
		{"f11", "Figure 11: priority sorting vs enforcement", tab(experiments.Figure11)},
		{"f12", "Figure 12: B4 TE on OVS", func(int) []fmt.Stringer {
			return []fmt.Stringer{experiments.Figure12(0)}
		}},
		{"overflow", "Overflow-inference attack scenarios (timing channel + detector)", tab(experiments.Overflow)},
		{"churn", "Heavy-churn scenarios (inference under timeout expiry)", tab(experiments.ChurnScenarios)},
		{"altpolicy", "Non-LEX cache policies (classify-or-reject)", tab(experiments.AltPolicy)},
		{"scale", "B4-wide sharded scale harness (honours -scale-flows)", sized(experiments.Scale)},
		{"fleet", "Continuous-inference fleet service (honours -fleet-switches)", sized(experiments.Fleet)},
		{"conformance", "Ground-truth inference conformance harness (honours -faults)", func(int) []fmt.Stringer {
			t, err := experiments.Conformance(24, 1, faultSpec)
			if err != nil {
				// The spec was validated in main; this is unreachable.
				fmt.Fprintf(os.Stderr, "tangobench: %v\n", err)
				os.Exit(1)
			}
			return []fmt.Stringer{t}
		}},
	}
}

func main() {
	var (
		only       = flag.String("only", "", "comma-separated experiment ids (default: all)")
		runs       = flag.Int("runs", 10, "repeat runs for the multi-run figures")
		out        = flag.String("out", "", "directory to write .dat series files into")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		faultSpec  = flag.String("faults", "", `control-channel fault spec for the conformance experiment, e.g. "drop=0.01,delay=0.05,seed=7" (see internal/faults)`)
		workers    = flag.Int("parallel", 1, "run up to this many experiments concurrently (0 = GOMAXPROCS); output order is unchanged")
		scaleFlows = flag.Int("scale-flows", 0, "resident-flow target for the scale experiment (0 = harness default, 1<<20)")
		fleetSw    = flag.Int("fleet-switches", 0, "simulated-member count for the fleet experiment (0 = 64)")
		tcli       telemetry.CLI
	)
	tcli.BindFlags(flag.CommandLine)
	flag.Parse()

	if _, err := faults.ParseSpec(*faultSpec); err != nil {
		fmt.Fprintf(os.Stderr, "tangobench: -faults: %v\n", err)
		os.Exit(2)
	}

	// Validate output destinations before burning minutes of experiment
	// time, so a typo'd path fails immediately instead of at the end.
	if *out != "" {
		if err := checkWritableDir(*out); err != nil {
			fmt.Fprintf(os.Stderr, "tangobench: -out: %v\n", err)
			os.Exit(1)
		}
	}
	for _, p := range tcli.OutputPaths() {
		if err := checkWritableFile(p[1]); err != nil {
			fmt.Fprintf(os.Stderr, "tangobench: %s: %v\n", p[0], err)
			os.Exit(1)
		}
	}
	flush, err := tcli.Setup()
	if err != nil {
		fmt.Fprintf(os.Stderr, "tangobench: %v\n", err)
		os.Exit(1)
	}

	cat := catalog(experiments.Options{ScaleFlows: *scaleFlows, FleetSwitches: *fleetSw}, *faultSpec)
	if *list {
		for _, e := range cat {
			fmt.Printf("%-10s %s\n", e.id, e.desc)
		}
		return
	}
	selected := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id != "" {
			selected[id] = true
		}
	}
	if len(selected) > 0 {
		known := map[string]bool{}
		for _, e := range cat {
			known[e.id] = true
		}
		var unknown []string
		for id := range selected {
			if !known[id] {
				unknown = append(unknown, id)
			}
		}
		if len(unknown) > 0 {
			sort.Strings(unknown)
			fmt.Fprintf(os.Stderr, "tangobench: unknown experiment(s): %s (use -list)\n", strings.Join(unknown, ", "))
			os.Exit(2)
		}
	}

	var chosen []experiment
	for _, e := range cat {
		if len(selected) > 0 && !selected[e.id] {
			continue
		}
		chosen = append(chosen, e)
	}
	// Experiments finish in any order; each is printed once every earlier
	// one has been, so output streams byte-for-byte as a serial run's does.
	var (
		mu      sync.Mutex
		done    = make([]*expResult, len(chosen))
		printed int
	)
	parallel.ForEach(len(chosen), *workers, func(i int) {
		start := time.Now()
		results := chosen[i].run(*runs)
		elapsed := time.Since(start)
		mu.Lock()
		defer mu.Unlock()
		done[i] = &expResult{results: results, elapsed: elapsed}
		for ; printed < len(done) && done[printed] != nil; printed++ {
			e, res := chosen[printed], done[printed]
			for _, r := range res.results {
				fmt.Println(r)
				if *out != "" {
					if err := writeDat(*out, e.id, r); err != nil {
						fmt.Fprintf(os.Stderr, "tangobench: %v\n", err)
						os.Exit(1)
					}
				}
			}
			fmt.Printf("[%s done in %v]\n\n", e.id, res.elapsed.Round(time.Millisecond))
		}
	})
	if err := flush(); err != nil {
		fmt.Fprintf(os.Stderr, "tangobench: %v\n", err)
		os.Exit(1)
	}
}

// expResult is one experiment's finished output plus its wall time.
type expResult struct {
	results []fmt.Stringer
	elapsed time.Duration
}

// checkWritableDir verifies dir can be created and written into by probing
// with a temp file.
func checkWritableDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, ".tangobench-*")
	if err != nil {
		return fmt.Errorf("directory %s is not writable: %w", dir, err)
	}
	name := f.Name()
	f.Close()
	return os.Remove(name)
}

// checkWritableFile verifies path can be opened for writing without
// truncating an existing file.
func checkWritableFile(path string) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	return f.Close()
}

// writeDat dumps figures as per-series gnuplot .dat files and tables as a
// single .txt file.
func writeDat(dir, id string, r fmt.Stringer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	switch v := r.(type) {
	case *experiments.Figure:
		for _, s := range v.Series {
			name := sanitize(id + "_" + s.Name)
			var b strings.Builder
			fmt.Fprintf(&b, "# %s — %s\n", v.Title, s.Name)
			for i := range s.X {
				fmt.Fprintf(&b, "%g %g\n", s.X[i], s.Y[i])
			}
			if err := os.WriteFile(filepath.Join(dir, name+".dat"), []byte(b.String()), 0o644); err != nil {
				return err
			}
		}
	case *experiments.Table:
		name := sanitize(id)
		return os.WriteFile(filepath.Join(dir, name+".txt"), []byte(v.String()), 0o644)
	}
	return nil
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
			return r
		default:
			return '_'
		}
	}, s)
}
