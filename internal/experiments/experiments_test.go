package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// parseSeconds pulls the float out of a "1.234s" cell.
func parseSeconds(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "s"), 64)
	if err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	return v
}

func TestTable1Shape(t *testing.T) {
	tb := Table1(Options{})
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	want := map[string][2]string{
		"OVS":      {"<inf (kernel)", "<inf (kernel)"},
		"Switch#1": {"4096", "2048"},
		"Switch#2": {"2560", "2560"},
		"Switch#3": {"767", "369"},
	}
	for _, row := range tb.Rows {
		w, ok := want[row[0]]
		if !ok {
			t.Fatalf("unexpected switch %q", row[0])
		}
		if row[2] != w[0] || row[3] != w[1] {
			t.Errorf("%s: got (%s, %s), want (%s, %s)", row[0], row[2], row[3], w[0], w[1])
		}
	}
}

func TestFigure2Tiers(t *testing.T) {
	figs := Figure2()
	if len(figs) != 3 {
		t.Fatalf("figures = %d", len(figs))
	}
	// OVS: flow 0 (matched): packet 1 slow (~4.5ms), packet 2 fast (~3ms).
	ovs := figs[0]
	p1, p2 := ovs.Series[0], ovs.Series[1]
	if !(p1.Y[0] > 3.8 && p1.Y[0] < 5.5) {
		t.Errorf("OVS first packet delay = %v ms, want ~4.5", p1.Y[0])
	}
	if !(p2.Y[0] > 2.5 && p2.Y[0] < 3.5) {
		t.Errorf("OVS second packet delay = %v ms, want ~3", p2.Y[0])
	}
	// Unmatched OVS flow (id 100): both packets at control-path delay.
	if !(p1.Y[100] > 4.2 && p2.Y[100] > 4.2) {
		t.Errorf("OVS miss delays = %v/%v ms", p1.Y[100], p2.Y[100])
	}

	// Switch #1: both packets of a flow share a tier (traffic independent);
	// flow 100 fast (~0.665), flow 3000 slow (~3.7), flow 4000 control (~7.5).
	s1 := figs[1]
	if d := s1.Series[0].Y[100]; !(d > 0.4 && d < 1.0) {
		t.Errorf("Switch#1 fast delay = %v", d)
	}
	if d1, d2 := s1.Series[0].Y[3000], s1.Series[1].Y[3000]; !(d1 > 2.5 && d1 < 5.0) || !(d2 > 2.5 && d2 < 5.0) {
		t.Errorf("Switch#1 slow delays = %v/%v (FIFO must be traffic independent)", d1, d2)
	}
	if d := s1.Series[0].Y[4000]; !(d > 5.0) {
		t.Errorf("Switch#1 control delay = %v", d)
	}

	// Switch #2: two tiers only — fast below ~2ms, control ~8ms, nothing
	// in between (no slow path).
	s2 := figs[2]
	for i, d := range s2.Series[0].Y {
		if d > 2.5 && d < 5.0 {
			t.Errorf("Switch#2 flow %d in a middle tier (%v ms) — should be two-tier", i, d)
			break
		}
	}
}

func TestFigure3aPermutationsDiffer(t *testing.T) {
	tb := Figure3a(2)
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	vals := map[string]float64{}
	for _, row := range tb.Rows {
		vals[row[0]] = parseSeconds(t, row[1])
	}
	// All six permutations complete in plausible time.
	for name, v := range vals {
		if v <= 0 || v > 120 {
			t.Errorf("%s = %v s", name, v)
		}
	}
}

func TestFigure3bModCheaperAtScale(t *testing.T) {
	fig := Figure3b([]int{200, 2000})
	series := map[string][]float64{}
	for _, s := range fig.Series {
		series[s.Name] = s.Y
	}
	addHW := series["add flow (Switch#1)"]
	modHW := series["mod flow (Switch#1)"]
	if addHW == nil || modHW == nil {
		t.Fatalf("missing series: %v", keys(series))
	}
	// At 2000 rules, random-order adds must be several times costlier than
	// mods on hardware (paper: ~6x at 5000).
	if addHW[1] < modHW[1]*1.5 {
		t.Errorf("add (%v) vs mod (%v) at 2000: expected add >> mod", addHW[1], modHW[1])
	}
	// On OVS both are trivial and similar.
	addOVS := series["add flow (OVS)"]
	modOVS := series["mod flow (OVS)"]
	if addOVS[1] > 1 || modOVS[1] > 1 {
		t.Errorf("OVS times should be sub-second: %v/%v", addOVS[1], modOVS[1])
	}
}

func TestFigure3cOrderingSpread(t *testing.T) {
	fig := Figure3c([]int{2000})
	get := func(name string) float64 {
		for _, s := range fig.Series {
			if s.Name == name {
				return s.Y[0]
			}
		}
		t.Fatalf("missing series %q", name)
		return 0
	}
	same := get("same priority (Switch#1)")
	asc := get("ascending priority (Switch#1)")
	desc := get("descending priority (Switch#1)")
	rnd := get("random priority (Switch#1)")
	if !(same < asc && asc < rnd && rnd < desc) {
		t.Fatalf("ordering violated: same=%v asc=%v rnd=%v desc=%v", same, asc, rnd, desc)
	}
	// Headline factors: desc >> same (tens of times), rnd several times asc.
	if desc/same < 10 {
		t.Errorf("desc/same = %v, want >= 10 (paper: up to 46x)", desc/same)
	}
	if rnd/asc < 3 {
		t.Errorf("rnd/asc = %v, want >= 3 (paper: ~12x)", rnd/asc)
	}
	// OVS curves must be flat across orderings (within 25%).
	ovsVals := []float64{
		get("same priority (OVS)"), get("ascending priority (OVS)"),
		get("descending priority (OVS)"), get("random priority (OVS)"),
	}
	for _, v := range ovsVals[1:] {
		if r := v / ovsVals[0]; r < 0.75 || r > 1.25 {
			t.Errorf("OVS ordering sensitivity: %v", ovsVals)
			break
		}
	}
}

func TestFigure5ThreeTiers(t *testing.T) {
	fig := Figure5()
	ys := fig.Series[0].Y
	if len(ys) != 2500 {
		t.Fatalf("points = %d", len(ys))
	}
	// Tier means: ~30 (fast bank), ~55 (second bank), ~140 (slow), in the
	// figure's 1e-2 ms units.
	if !(ys[100] < 45) {
		t.Errorf("early flow RTT = %v, want fast bank", ys[100])
	}
	if !(ys[1500] > 45 && ys[1500] < 90) {
		t.Errorf("mid flow RTT = %v, want second bank", ys[1500])
	}
	if !(ys[2300] > 90) {
		t.Errorf("late flow RTT = %v, want slow path", ys[2300])
	}
}

func TestFigure6Decorrelated(t *testing.T) {
	fig := Figure6()
	if len(fig.Series) != 4 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Y) != 200 {
			t.Fatalf("%s: %d points, want 200", s.Name, len(s.Y))
		}
	}
}

func TestSizeAccuracyWithinFivePercent(t *testing.T) {
	if testing.Short() {
		t.Skip("full probing sweep")
	}
	tb := SizeAccuracy(Options{})
	for _, row := range tb.Rows {
		errCell := strings.TrimSuffix(row[4], "%")
		v, err := strconv.ParseFloat(errCell, 64)
		if err != nil {
			t.Fatalf("row %v: %v", row, err)
		}
		if v > 5.0 {
			t.Errorf("%s (%s): error %v%% exceeds 5%%", row[0], row[1], v)
		}
	}
}

func TestPolicyAccuracyAllCorrect(t *testing.T) {
	if testing.Short() {
		t.Skip("full probing sweep")
	}
	tb := PolicyAccuracy(Options{})
	for _, row := range tb.Rows[:5] {
		if row[2] != "yes" {
			t.Errorf("policy %s inferred as %s", row[0], row[1])
		}
	}
	last := tb.Rows[len(tb.Rows)-1]
	if !strings.Contains(last[1], "inconclusive") || !strings.Contains(last[2], "yes") {
		t.Errorf("OVS row = %v", last)
	}
}

func TestTable2Counts(t *testing.T) {
	tb := Table2()
	wantTopo := []string{"52", "38", "33"}
	wantFlows := []string{"829", "989", "972"}
	for i, row := range tb.Rows {
		if row[1] != wantTopo[i] {
			t.Errorf("file %d topo priorities = %s, want %s", i+1, row[1], wantTopo[i])
		}
		if row[2] != wantFlows[i] || row[3] != wantFlows[i] {
			t.Errorf("file %d flows = %s installed %s, want %s", i+1, row[2], row[3], wantFlows[i])
		}
	}
}

func TestFigure9AscendingWins(t *testing.T) {
	figs := Figure9(2)
	for _, fig := range figs {
		means := map[string]float64{}
		for _, s := range fig.Series {
			var sum float64
			for _, y := range s.Y {
				sum += y
			}
			means[s.Name] = sum / float64(len(s.Y))
		}
		topoOpt := means["Topo Asc"]
		for name, v := range means {
			if name == "Topo Asc" {
				continue
			}
			if topoOpt > v {
				t.Errorf("%s: Topo Asc (%v) lost to %s (%v)", fig.Title, topoOpt, name, v)
			}
		}
		// The paper reports ~80-89% reduction vs random orders on hardware.
		if r := means["Topo Rand"]; topoOpt > 0.5*r {
			t.Errorf("%s: Topo Asc %v vs Topo Rand %v — want large win", fig.Title, topoOpt, r)
		}
	}
}

func TestFigure8SmallOVSDifferences(t *testing.T) {
	figs := Figure8(2)
	for _, fig := range figs {
		for _, s := range fig.Series {
			for _, y := range s.Y {
				if y > 1.0 {
					t.Errorf("%s %s: %v s — OVS installs should be fast", fig.Title, s.Name, y)
				}
			}
		}
	}
}

func TestFigure10TangoBeatsDionysus(t *testing.T) {
	if testing.Short() {
		t.Skip("testbed sweep")
	}
	tb := Figure10()
	for _, row := range tb.Rows {
		dio := parseSeconds(t, row[1])
		typ := parseSeconds(t, row[2])
		full := parseSeconds(t, row[3])
		if typ > dio*1.02 {
			t.Errorf("%s: Tango(Type) %v worse than Dionysus %v", row[0], typ, dio)
		}
		if full > typ*1.02 {
			t.Errorf("%s: Tango(Type+Priority) %v worse than Tango(Type) %v", row[0], full, typ)
		}
		if row[0] == "LF" && full > dio*0.6 {
			t.Errorf("LF: priority pattern should win big: tango %v vs dionysus %v", full, dio)
		}
	}
}

func TestFigure11EnforcementWins(t *testing.T) {
	if testing.Short() {
		t.Skip("testbed sweep")
	}
	tb := Figure11()
	for _, row := range tb.Rows {
		dio := parseSeconds(t, row[1])
		sorting := parseSeconds(t, row[2])
		enforcement := parseSeconds(t, row[3])
		if sorting > dio {
			t.Errorf("%s: sorting %v worse than dionysus %v", row[0], sorting, dio)
		}
		if enforcement > sorting*1.05 {
			t.Errorf("%s: enforcement %v worse than sorting %v", row[0], enforcement, sorting)
		}
	}
}

func TestFigure12TangoWins(t *testing.T) {
	if testing.Short() {
		t.Skip("B4 sweep")
	}
	tb := Figure12(400)
	dio := parseSeconds(t, tb.Rows[0][1])
	tango := parseSeconds(t, tb.Rows[1][1])
	if tango > dio {
		t.Errorf("tango %v worse than dionysus %v", tango, dio)
	}
}

func keys(m map[string][]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestTableAndFigureRendering(t *testing.T) {
	tb := &Table{Title: "t", Header: []string{"a", "bb"}, Rows: [][]string{{"1", "2"}}}
	if s := tb.String(); !strings.Contains(s, "== t ==") || !strings.Contains(s, "bb") {
		t.Fatalf("table render: %q", s)
	}
	fig := &Figure{Title: "f", Series: []Series{{Name: "s", X: []float64{1}, Y: []float64{2}}}}
	if s := fig.String(); !strings.Contains(s, "-- s --") {
		t.Fatalf("figure render: %q", s)
	}
}

func TestReportedVsInferred(t *testing.T) {
	if testing.Short() {
		t.Skip("full probing sweep")
	}
	tb := ReportedVsInferred(Options{})
	want := map[string][3]string{
		"Switch#1": {"2048", "2047", "-1"},   // default route steals a slot
		"Switch#2": {"2560", "2560", "none"}, // honest flat design
		"Switch#3": {"767", "369", "-398"},   // report ignores entry width
	}
	for _, row := range tb.Rows {
		w, ok := want[row[0]]
		if !ok {
			t.Fatalf("unexpected switch %q", row[0])
		}
		if row[1] != w[0] || row[2] != w[1] || row[3] != w[2] {
			t.Errorf("%s: got %v, want %v", row[0], row[1:], w)
		}
	}
}

func TestCacheHitRatesShape(t *testing.T) {
	tb := CacheHitRates()
	rates := map[[2]string]float64{}
	for _, row := range tb.Rows {
		v, err := strconv.ParseFloat(strings.TrimSuffix(row[2], "%"), 64)
		if err != nil {
			t.Fatal(err)
		}
		rates[[2]string{row[0], row[1]}] = v
	}
	// Skewed traffic: recency/frequency policies beat FIFO decisively.
	if rates[[2]string{"zipf", "LRU"}] < rates[[2]string{"zipf", "FIFO"}]+30 {
		t.Errorf("zipf: LRU %.1f%% vs FIFO %.1f%% — want a large gap",
			rates[[2]string{"zipf", "LRU"}], rates[[2]string{"zipf", "FIFO"}])
	}
	if rates[[2]string{"zipf", "LFU"}] < rates[[2]string{"zipf", "LRU"}]-5 {
		t.Errorf("zipf: LFU %.1f%% should be at least competitive with LRU %.1f%%",
			rates[[2]string{"zipf", "LFU"}], rates[[2]string{"zipf", "LRU"}])
	}
	// Uniform traffic: every policy converges to cache/rules ≈ 25%.
	for _, pol := range []string{"FIFO", "LRU", "LFU"} {
		if v := rates[[2]string{"uniform", pol}]; v < 15 || v > 35 {
			t.Errorf("uniform %s hit rate %.1f%%, want ~25%%", pol, v)
		}
	}
	// Scans starve recency policies but leave FIFO's resident set alone.
	if rates[[2]string{"scan", "LRU"}] > 5 {
		t.Errorf("scan LRU hit rate %.1f%%, want ~0", rates[[2]string{"scan", "LRU"}])
	}
	if rates[[2]string{"scan", "FIFO"}] < 15 {
		t.Errorf("scan FIFO hit rate %.1f%%, want ~25", rates[[2]string{"scan", "FIFO"}])
	}
}
