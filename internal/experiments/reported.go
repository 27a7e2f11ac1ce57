package experiments

import (
	"fmt"

	"tango/internal/core/infer"
	"tango/internal/core/probe"
	"tango/internal/openflow"
	"tango/internal/parallel"
	"tango/internal/switchsim"
)

// ReportedVsInferred demonstrates the paper's §1 motivation — "the reports
// can be inaccurate. For example, the maximum number of flow entries that
// can be inserted is approximate and depends on the matching fields" — by
// comparing what each switch *reports* through OFPST_TABLE statistics with
// what Tango *measures* for the rule shape actually in use (double-wide
// L2+L3 probe rules).
func ReportedVsInferred(o Options) *Table {
	t := &Table{
		Title:  "Switch-reported vs. Tango-inferred usable capacity (L2+L3 rules)",
		Header: []string{"switch", "reported max", "inferred usable", "discrepancy"},
	}
	cases := []struct {
		prof switchsim.Profile
		opts []switchsim.Option
	}{
		{switchsim.Switch1(), []switchsim.Option{switchsim.WithDefaultRoute()}},
		{switchsim.Switch2(), nil},
		{switchsim.Switch3(), nil},
	}
	rows := make([][]string, len(cases))
	parallel.ForEach(len(cases), o.Workers, func(i int) {
		c := cases[i]
		sw := switchsim.New(c.prof, append(c.opts, switchsim.WithSeed(int64(i)))...)
		// What the switch reports: OFPST_TABLE max_entries for the TCAM.
		replies := sw.Handle(&openflow.StatsRequest{StatsType: openflow.StatsTypeTable})
		reported := uint32(0)
		for _, r := range replies {
			if sr, ok := r.(*openflow.StatsReply); ok {
				for _, ts := range sr.Tables {
					if ts.Name == "tcam" {
						reported = ts.MaxEntries
					}
				}
			}
		}
		// What Tango measures for the rules it will actually install.
		e := probe.NewEngine(probe.SimDevice{S: sw})
		res, err := infer.ProbeSizes(e, infer.SizeOptions{Seed: int64(i)})
		if err != nil {
			rows[i] = []string{c.prof.Name, fmt.Sprint(reported), "error: " + err.Error(), "-"}
			return
		}
		inferred := res.Levels[0].Census
		disc := "none"
		if int(reported) != inferred {
			disc = fmt.Sprintf("%+d", inferred-int(reported))
		}
		rows[i] = []string{c.prof.Name, fmt.Sprint(reported), fmt.Sprint(inferred), disc}
	})
	t.Rows = append(t.Rows, rows...)
	return t
}
