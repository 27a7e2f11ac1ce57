package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// -compare a.jsonl b.jsonl: for every (end-to-end metric, workload) pair,
// both sets' medians, the wider of their spreads, and a verdict against the
// metric's bound in BENCHMARK.json. a is the reference (the parent commit,
// or the first of two sets of one commit), b the candidate.

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// readRecords loads the untraced records of a results.jsonl file, grouped by
// workload and metric.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Result.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v.Value)
		}
	}
	return out, sc.Err()
}

// verdict judges a candidate median against a reference median.
//
//	worse       the candidate is worse by more than the bound
//	unresolved  the runs of one set spread wider than the bound, so the
//	            comparison cannot tell a regression from noise
//	ok          otherwise
func verdict(m specMetric, ref, cand, spreadMax float64) string {
	worsening := (cand - ref) / ref
	if m.Better == "higher" {
		worsening = (ref - cand) / ref
	}
	switch {
	case worsening > m.Bound:
		return "worse"
	case spreadMax > m.Bound:
		return "unresolved"
	}
	return "ok"
}

func compareFiles(w io.Writer, specPath, aPath, bPath string) (worse bool, err error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := readRecords(aPath)
	if err != nil {
		return false, err
	}
	b, err := readRecords(bPath)
	if err != nil {
		return false, err
	}
	var names []string
	for name := range a {
		if _, ok := b[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return false, fmt.Errorf("%s and %s share no workload", aPath, bPath)
	}
	fmt.Fprintf(w, "%-16s %-16s %5s %14s %14s %8s %8s %6s  %s\n", "workload", "metric", "runs", "median a", "median b", "change", "spread", "bound", "verdict")
	for _, name := range names {
		for _, m := range spec.EndToEnd {
			xs, ys := a[name][m.Name], b[name][m.Name]
			if len(xs) == 0 || len(ys) == 0 {
				return false, fmt.Errorf("%s: %s is missing from one of the sets", name, m.Name)
			}
			ref, cand := median(xs), median(ys)
			// One run per set has no spread; the verdict then rests on
			// the medians alone.
			var spreadMax float64
			for _, set := range [][]float64{xs, ys} {
				if s, err := spread(set); err == nil && s > spreadMax {
					spreadMax = s
				}
			}
			v := verdict(m, ref, cand, spreadMax)
			worse = worse || v == "worse"
			fmt.Fprintf(w, "%-16s %-16s %2d/%-2d %14.6g %14.6g %+7.1f%% %7.1f%% %5.0f%%  %s\n",
				name, m.Name, len(xs), len(ys), ref, cand, 100*(cand-ref)/ref, 100*spreadMax, 100*m.Bound, v)
		}
	}
	return worse, nil
}
