package experiments

import "testing"

// TestInferParallelDifferential is the worker-pool determinism gate for the
// inference experiments: every table that fans per-profile cells across
// Options.Workers — embedding each profile's SizeResult estimates, census
// counts, and policy verdicts — must render byte-identical at 1 and 8
// workers. Each cell owns its seeded switch, engine, and RNG, so any
// divergence means shared state leaked between cells. CI runs this under
// the race detector, where the 8-worker pass also shakes out data races.
func TestInferParallelDifferential(t *testing.T) {
	type table struct {
		name string
		run  func(Options) *Table
	}
	tables := []table{
		{"SizeAccuracy", SizeAccuracy},
		{"PolicyAccuracy", PolicyAccuracy},
		{"ReportedVsInferred", ReportedVsInferred},
		{"Table1", Table1},
	}
	for _, tb := range tables {
		tb := tb
		t.Run(tb.name, func(t *testing.T) {
			serial := tb.run(Options{Workers: 1}).String()
			parallel := tb.run(Options{Workers: 8}).String()
			if serial != parallel {
				t.Errorf("%s diverges between 1 and 8 workers:\nserial:\n%s\nparallel:\n%s",
					tb.name, serial, parallel)
			}
		})
	}
}
