package sched

import (
	"slices"
	"sync"
	"time"

	"tango/internal/core/pattern"
)

// TableView is the controller's shadow of each switch's resident rule set,
// tracked by priority. The controller installed every rule, so it can know
// the table composition without querying the switch; the view's Higher
// method plugs directly into Tango.ExistingHigher, giving the pattern
// oracle the information it needs to price TCAM shifts and to see that
// deleting high-priority rules before adding saves them.
type TableView struct {
	mu sync.RWMutex
	// counts[sw][priority] = resident rules at that priority.
	counts map[string]map[uint16]int
}

// NewTableView returns an empty view.
func NewTableView() *TableView {
	return &TableView{counts: map[string]map[uint16]int{}}
}

// Preload records n pre-existing rules at the given priority.
func (v *TableView) Preload(sw string, priority uint16, n int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.bump(sw, priority, n)
}

func (v *TableView) bump(sw string, priority uint16, delta int) {
	m := v.counts[sw]
	if m == nil {
		m = map[uint16]int{}
		v.counts[sw] = m
	}
	m[priority] += delta
	if m[priority] <= 0 {
		delete(m, priority)
	}
}

// Apply folds one executed request into the view: adds insert a rule,
// deletes remove one, modifications leave the composition unchanged.
func (v *TableView) Apply(r *Request) {
	v.mu.Lock()
	defer v.mu.Unlock()
	switch r.Op {
	case pattern.OpAdd:
		v.bump(r.Switch, r.Priority, 1)
	case pattern.OpDel:
		v.bump(r.Switch, r.Priority, -1)
	}
}

// Higher returns the number of rules the controller believes are resident
// on sw with priority strictly greater than p. Its method value satisfies
// the Tango.ExistingHigher contract.
func (v *TableView) Higher(sw string, p uint16) int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	n := 0
	for prio, c := range v.counts[sw] {
		if prio > p {
			n += c
		}
	}
	return n
}

// Rules returns the total rule count the view holds for sw.
func (v *TableView) Rules(sw string) int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	n := 0
	for _, c := range v.counts[sw] {
		n += c
	}
	return n
}

// Priorities returns the distinct priorities present on sw, ascending —
// useful for diagnostics and priority-space planning.
func (v *TableView) Priorities(sw string) []uint16 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]uint16, 0, len(v.counts[sw]))
	for p := range v.counts[sw] {
		out = append(out, p)
	}
	slices.Sort(out)
	return out
}

// RunWithView drains the graph like Run and additionally folds every issued
// request into the view as it completes, so the oracle's table-state
// estimates stay current across rounds. The view couples batches *within*
// a round — under the serial order a later switch's oracle reads observe an
// earlier switch's applies — so view-tracked runs pin Workers to 1 to keep
// that order deterministic.
func RunWithView(g *Graph, s Scheduler, exec Executor, opts RunOptions, view *TableView) (*RunResult, error) {
	tracking := viewTrackingExecutor{exec: exec, view: view}
	opts.Workers = 1
	return Run(g, s, tracking, opts)
}

// viewTrackingExecutor wraps an executor, applying completed ops to a view.
type viewTrackingExecutor struct {
	exec Executor
	view *TableView
}

// Execute implements Executor.
func (t viewTrackingExecutor) Execute(switchName string, ops []pattern.Op) (time.Duration, error) {
	d, err := t.exec.Execute(switchName, ops)
	if err != nil {
		return d, err
	}
	for _, op := range ops {
		t.view.Apply(&Request{Switch: switchName, Op: op.Kind, Priority: op.Priority})
	}
	return d, nil
}
