package sched

import (
	"fmt"
	"time"

	"tango/internal/core/pattern"
	"tango/internal/core/probe"
)

// EngineExecutor backs the scheduler with probing engines — one per switch,
// each an emulated device on its own virtual clock, so per-switch batch
// durations compose into a parallel makespan.
type EngineExecutor map[string]*probe.Engine

// Execute implements Executor.
func (x EngineExecutor) Execute(switchName string, ops []pattern.Op) (time.Duration, error) {
	e, ok := x[switchName]
	if !ok {
		return 0, fmt.Errorf("sched: no engine for switch %q", switchName)
	}
	res, err := e.Run(pattern.Pattern{Name: "sched/batch", Ops: ops})
	return res.Total, err
}

// CardExecutor estimates batch durations from score cards instead of
// executing them — used for fast what-if evaluation and for tests that
// need a deterministic executor.
type CardExecutor struct {
	DB *pattern.DB
}

// Execute implements Executor.
func (x CardExecutor) Execute(switchName string, ops []pattern.Op) (time.Duration, error) {
	card, ok := x.DB.Score(switchName)
	if !ok {
		return 0, fmt.Errorf("sched: no score card for switch %q", switchName)
	}
	return card.EstimateOps(ops, nil), nil
}
