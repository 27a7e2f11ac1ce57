package experiments

import (
	"fmt"

	"tango/internal/conformance"
)

// adversarial.go renders the adversarial/churn workload scenario catalog
// (conformance/scenarios.go) as benchmark tables, one per family, each with
// a pass/fail gate row. Scenarios are seeded and deterministic, so the
// tables double as regression gates: tangobench's CI invocation fails the
// build if any pinned verdict flips.

// adversarialFamily runs the catalog scenarios of one family into a table.
func adversarialFamily(family, title string) *Table {
	t := &Table{
		Title:  title,
		Header: []string{"scenario", "seed", "verdict", "outcome"},
	}
	pass, total := 0, 0
	for _, sc := range conformance.Scenarios() {
		if sc.Family != family {
			continue
		}
		total++
		r := conformance.RunScenario(sc)
		status := "FAIL"
		if r.Pass {
			status = "ok"
			pass++
		}
		t.Rows = append(t.Rows, []string{sc.Name, fmt.Sprint(sc.Seed), r.Verdict, status})
	}
	t.Rows = append(t.Rows, []string{"TOTAL", "", fmt.Sprintf("%d/%d gates hold", pass, total), ""})
	return t
}

// Overflow runs the overflow-inference attack scenarios (arXiv 1504.03095):
// the attack's timing channel resolving an LRU cache size, its structural
// signature tripping the switch-side detector while a clean Zipf replay
// stays silent, and Tango's own size inference converging with the attack
// running as a concurrent tenant.
func Overflow() *Table {
	return adversarialFamily("overflow",
		"Overflow-inference attack: timing channel, detector, inference interference")
}

// ChurnScenarios runs the heavy-churn scenarios: size and policy inference
// with a timeout-driven install/expire workload continuously sweeping rules
// through switchsim's lazy expiry while probing runs.
func ChurnScenarios() *Table {
	return adversarialFamily("churn",
		"Heavy churn: inference under timeout-driven install/expire load")
}

// AltPolicy runs the alternative cache-management scenarios: policies
// outside the LEX model (destination /28 aggregation, FDRC epoch caching)
// that PolicyResult.Verdict must either reject with a typed error or pass as
// the LEX composite their observable behaviour coincides with.
func AltPolicy() *Table {
	return adversarialFamily("altpolicy",
		"Alternative cache management: classify-or-reject for non-LEX policies")
}
