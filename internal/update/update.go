// Package update plans consistent network updates: it converts the
// per-flow rule changes produced by path diffing into a scheduler request
// DAG whose dependencies enforce the reverse-path update discipline the
// paper adopts from the consistent-updates literature ("we ensure that the
// flow updates are conducted in reverse order across the source-destination
// paths to ensure update consistency", §7.2) — a packet in flight never
// meets a switch that has not yet learned its flow.
package update

import (
	"fmt"
	"math/rand"

	"tango/internal/core/pattern"
	"tango/internal/core/sched"
	"tango/internal/dag"
	"tango/internal/topo"
)

// PlanOptions tunes Plan.
type PlanOptions struct {
	// AssignPriorities controls how rule priorities are chosen:
	// true assigns each change a unique priority from a seeded shuffle
	// (app-specified, 1-1 style); false leaves priorities unassigned so
	// the scheduler's priority enforcement can pick them.
	AssignPriorities bool
	// Seed drives the priority shuffle.
	Seed int64
}

const (
	// basePriority anchors assigned priorities.
	basePriority = 1000
	// flowIDBase is the flow ID of the first planned rule; change i gets
	// flowIDBase+i.
	flowIDBase = 40000
)

// Plan builds the request DAG for a set of rule changes. Each change's
// DependsOn edge becomes a DAG edge, serialising every flow's updates from
// the destination side back to the source, with old-path cleanup last.
func Plan(changes []topo.RuleChange, opts PlanOptions) (*sched.Graph, error) {
	g := sched.NewGraph()
	ids := make([]dag.NodeID, len(changes))
	var prios []int
	if opts.AssignPriorities {
		prios = rand.New(rand.NewSource(opts.Seed)).Perm(len(changes))
	}
	for i, ch := range changes {
		var op pattern.OpKind
		switch ch.Kind {
		case topo.ChangeAdd:
			op = pattern.OpAdd
		case topo.ChangeMod:
			op = pattern.OpMod
		case topo.ChangeDel:
			op = pattern.OpDel
		default:
			return nil, fmt.Errorf("update: unknown change kind %v", ch.Kind)
		}
		r := &sched.Request{
			Switch: ch.Switch,
			Op:     op,
			FlowID: flowIDBase + uint32(i),
		}
		if opts.AssignPriorities {
			r.Priority = basePriority + uint16(prios[i])
			r.HasPriority = true
		}
		ids[i] = g.AddNode(r)
		if ch.DependsOn >= 0 {
			if ch.DependsOn >= i {
				return nil, fmt.Errorf("update: change %d depends on later change %d", i, ch.DependsOn)
			}
			if err := g.AddEdge(ids[ch.DependsOn], ids[i]); err != nil {
				return nil, fmt.Errorf("update: dependency %d→%d: %w", ch.DependsOn, i, err)
			}
		}
	}
	return g, nil
}
