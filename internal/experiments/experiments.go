// Package experiments contains one driver per table and figure of the
// paper's evaluation (§3 and §7). Every driver builds its workload, runs it
// against emulated switches on virtual clocks, and returns the same rows or
// series the paper reports — cmd/tangobench prints them, this package's
// tests assert their shape, and EXPERIMENTS.md records paper-vs-measured.
package experiments

import (
	"fmt"
	"strings"
	"time"
)

// Options is what a caller may set for a run of the catalog; cmd/tangobench
// fills it from its flags. The zero value runs every experiment at its
// published size on GOMAXPROCS workers.
type Options struct {
	// Workers bounds the fan-outs the experiments own: the per-profile
	// cells of Table1, SizeAccuracy, PolicyAccuracy and ReportedVsInferred,
	// Scale's shards and Fleet's workers. 0 means GOMAXPROCS (for Scale,
	// one shard per site). Rows are identical at every value; the
	// differential tests compare 1 with 8.
	Workers int
	// ScaleFlows is Scale's resident-flow target (0 = the harness default,
	// 1<<20). CI sets a reduced target so the smoke artifact stays fast.
	ScaleFlows int
	// FleetSwitches is Fleet's simulated-member count (0 = 64), reduced in
	// CI for the same reason.
	FleetSwitches int
}

// Table is a titled grid of rendered cells.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// String renders the table as aligned plain text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// Series is one plotted curve: paired X/Y values with a name.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// String renders the series compactly.
func (s *Series) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "-- %s --\n", s.Name)
	for i := range s.X {
		fmt.Fprintf(&b, "%g\t%g\n", s.X[i], s.Y[i])
	}
	return b.String()
}

// Figure is a titled collection of series.
type Figure struct {
	Title  string
	Series []Series
}

// String renders the figure.
func (f *Figure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", f.Title)
	for i := range f.Series {
		b.WriteString(f.Series[i].String())
	}
	return b.String()
}

// seconds converts a duration to float seconds for series output.
func seconds(d time.Duration) float64 { return d.Seconds() }

// msec converts a duration to float milliseconds.
func msec(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// fmtDur renders a duration with stable precision for table cells.
func fmtDur(d time.Duration) string { return fmt.Sprintf("%.3fs", d.Seconds()) }

// fmtPct renders a ratio as a percentage.
func fmtPct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
