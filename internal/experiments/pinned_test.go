package experiments

import (
	"fmt"
	"strings"
	"testing"

	"tango/internal/core/pattern"
	"tango/internal/core/probe"
	"tango/internal/switchsim"
)

// TestEngineTimingsPinned holds what the engine's op runner measures to
// exact values: Figure 3(a)–(c) time flow-mod sequences through
// probe.Engine.Run, and probe.BenchmarkChannel times rates and RTTs on a
// seeded emulated switch. Everything runs on virtual clocks with fixed
// seeds, so a change to which ops the runner counts, or to when it reads
// the clock, moves a digit here; the shape tests (TestFigure3*) only check
// trends. Figure 3(a)'s table rounds to milliseconds, so its trials are
// pinned in nanoseconds as well. Trailing blanks (table padding) are
// trimmed before comparing.
func TestEngineTimingsPinned(t *testing.T) {
	cases := []struct {
		name string
		got  func() string
		want string
	}{
		{"Figure3a(1)", func() string { return Figure3a(1).String() }, `
== Figure 3(a): rule installation sequences on Switch #1 (200 add/mod/del) ==
scenario     mean install time  min     max
del_mod_add  3.465s             3.465s  3.465s
del_add_mod  3.461s             3.461s  3.461s
mod_del_add  3.468s             3.468s  3.468s
mod_add_del  4.016s             4.016s  4.016s
add_del_mod  4.025s             4.025s  4.025s
add_mod_del  4.022s             4.022s  4.022s
`},
		{"Figure3aTrials", func() string {
			var b strings.Builder
			for _, perm := range pattern.Permutations3 {
				fmt.Fprintf(&b, "%v %d\n", perm, int64(runPermutation(perm, 0)))
			}
			return b.String()
		}, `
[del mod add] 3465417660
[del add mod] 3460582908
[mod del add] 3467920581
[mod add del] 4015888733
[add del mod] 4025198547
[add mod del] 4021632883
`},
		{"Figure3b", func() string { return Figure3b([]int{20, 100}).String() }, `
== Figure 3(b): add vs modify flow delay ==
-- add flow (Switch#1) --
20	0.020183694
100	0.15842098
-- mod flow (Switch#1) --
20	0.120189731
100	0.599840869
-- add flow (OVS) --
20	0.001041156
100	0.005181907
-- mod flow (OVS) --
20	0.001144615
100	0.005540602
`},
		{"Figure3c", func() string { return Figure3c([]int{20, 100}).String() }, `
== Figure 3(c): flow installation time by priority pattern ==
-- same priority (Switch#1) --
20	0.00835791
100	0.042157876
-- ascending priority (Switch#1) --
20	0.017745486
100	0.090111896
-- descending priority (Switch#1) --
20	0.021382632
100	0.159341852
-- random priority (Switch#1) --
20	0.019147097
100	0.126518515
-- same priority (OVS) --
20	0.001035648
100	0.005230603
-- ascending priority (OVS) --
20	0.001082085
100	0.00523601
-- descending priority (OVS) --
20	0.001103412
100	0.005242267
-- random priority (OVS) --
20	0.001079754
100	0.005232996
`},
		{"BenchmarkChannel", func() string {
			s := switchsim.New(switchsim.Switch1(), switchsim.WithSeed(3))
			rep, err := probe.BenchmarkChannel(probe.NewEngine(probe.SimDevice{S: s}))
			if err != nil {
				return err.Error()
			}
			return fmt.Sprintf("%+v\n", *rep)
		}, `
{AddPerSec:2385.78296661185 ModPerSec:167.5929398568024 DelPerSec:500.37379298363805 FastRTT:{Min:611.584µs Mean:665.679µs Median:664.508µs P99:722.274µs} PuntRTT:{Min:5.076018ms Mean:7.420405ms Median:7.443892ms P99:8.634309ms}}
`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got, want := trimLines(c.got()), strings.TrimPrefix(c.want, "\n"); got != want {
				t.Errorf("got\n%s\nwant\n%s", got, want)
			}
		})
	}
}

// trimLines drops trailing blanks from every line of s.
func trimLines(s string) string {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		lines[i] = strings.TrimRight(l, " ")
	}
	return strings.Join(lines, "\n")
}
