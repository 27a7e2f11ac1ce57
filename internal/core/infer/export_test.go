package infer

import (
	"errors"
	"fmt"
	"reflect"

	"tango/internal/core/probe"
)

// SampledRun is one ProbeSizes run with what its stop rule saw.
type SampledRun struct {
	*SizeResult
	// LevelProbes are the probes each sampled level spent, in level order.
	LevelProbes []int
	// TightFirst lists, in level order, whether the interval was tight at
	// some trial boundary before the level's budget was spent.
	TightFirst []bool
}

// ProbeSizesTraced is ProbeSizes under Algorithm 1's stop rule or, when
// budgetOnly, under the rule it had before the interval: an adaptive level
// samples past 64 trials until max(6×m, 3000) probes are spent. The
// budget-only run is the oracle the interval rule is held to.
func ProbeSizesTraced(e *probe.Engine, opts SizeOptions, budgetOnly bool) (SampledRun, error) {
	var run SampledRun
	tight := false
	res, err := probeSizes(e, opts, func(k, sum, probes, budget int) bool {
		tight = tight || probes < budget && stopWhenTight(k, sum, probes, budget)
		stop := k >= minTrials && probes >= budget
		if !budgetOnly {
			stop = stopWhenTight(k, sum, probes, budget)
		}
		if stop {
			run.LevelProbes = append(run.LevelProbes, probes)
			run.TightFirst = append(run.TightFirst, tight)
			tight = false
		}
		return stop
	})
	run.SizeResult = res
	return run, err
}

// DrainScratch empties the working-memory free list, so the next phase
// starts from a struct of its own whatever ran earlier in the test binary.
func DrainScratch() {
	select {
	case <-freeScratch:
	default:
	}
}

// KeptScratchWithin checks the kept working memory against what an
// inspection at a size budget of rules needs: the size phase's buffers hold
// rules samples, a policy block 2 × rules flows, the finder twice that, and
// the cost fit's buffers two ops per default sample. Each of the block's
// vectors is one block's. It fails when nothing is kept, and leaves the
// list as it found it.
func KeptScratchWithin(rules int) error {
	var w *scratch
	select {
	case w = <-freeScratch:
	default:
		return errors.New("no working memory is kept")
	}
	defer func() {
		select {
		case freeScratch <- w:
		default:
		}
	}()
	flows := 2 * rules
	for _, b := range []struct {
		name     string
		cap, max int
	}{
		{"rtts", cap(w.rtts), rules},
		{"perm", cap(w.perm), rules},
		{"ints", cap(w.ints), (numAttrs + 1) * flows},
		{"floats", cap(w.floats), (numAttrs + 2) * flows},
		{"prios", cap(w.prios), flows},
		{"ops", cap(w.ops), 2 * defaultCostSamples},
		{"xy", cap(w.xy), 2 * defaultCostSamples},
	} {
		if b.cap > b.max {
			return fmt.Errorf("%s keeps %d elements, more than %d", b.name, b.cap, b.max)
		}
	}
	if err := slicesWithin(reflect.ValueOf(w.finder), "finder", 2*flows); err != nil {
		return err
	}
	return slicesWithin(reflect.ValueOf(w.block), "block", flows)
}

// slicesWithin fails for any slice in v, a struct or array walked field by
// field, whose capacity exceeds max.
func slicesWithin(v reflect.Value, name string, max int) error {
	switch v.Kind() {
	case reflect.Slice:
		if v.Cap() > max {
			return fmt.Errorf("%s keeps %d elements, more than %d", name, v.Cap(), max)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if err := slicesWithin(v.Field(i), name+"."+v.Type().Field(i).Name, max); err != nil {
				return err
			}
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if err := slicesWithin(v.Index(i), fmt.Sprintf("%s[%d]", name, i), max); err != nil {
				return err
			}
		}
	}
	return nil
}
