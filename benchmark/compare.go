package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json compare reads: each end-to-end
// metric's direction and regression bound.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// findBenchSpec looks for BENCHMARK.json in the working directory and its
// parents.
func findBenchSpec() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		p := filepath.Join(dir, "BENCHMARK.json")
		if _, err := os.Stat(p); err == nil {
			return p, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json in the working directory or above; run compare inside the checkout")
		}
		dir = parent
	}
}

// loadRuns reads the untraced run records of a directory written by -out:
// workload → metric → seed → value.
func loadRuns(dir string) (map[string]map[string]map[uint64]float64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	runs := map[string]map[string]map[uint64]float64{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rec record
		if err := json.Unmarshal(b, &rec); err != nil || rec.Meta == nil || rec.Result == nil {
			return nil, fmt.Errorf("%s: not a run record (%v)", f, err)
		}
		if rec.Meta.Trace {
			continue
		}
		w := runs[rec.Meta.Workload]
		if w == nil {
			w = map[string]map[uint64]float64{}
			runs[rec.Meta.Workload] = w
		}
		for name, v := range rec.Result.Metrics {
			if w[name] == nil {
				w[name] = map[uint64]float64{}
			}
			w[name][rec.Meta.Seed] = v.Value
		}
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no untraced run records", dir)
	}
	return runs, nil
}

// comparison is one (workload, metric) row.
type comparison struct {
	workload, metric string
	parent, change   []float64
	// pairs are the seeds run on both sides; wins those the change won
	// (ties count for neither side).
	pairs, wins int
	// worse is how much worse the change's median is, as a share of the
	// parent's (negative: better); spread is the parent's interquartile
	// range as a share of its median.
	worse, spread float64
	verdict       string
}

// minPairs is the fewest alternating pairs a gain may rest on.
const minPairs = 10

// compareMetric applies the rules of a paired comparison: a regression is
// a median worse by more than the bound; a spread between the parent's own
// runs wider than the bound leaves the metric unresolved unless every
// change run beats every parent run; a gain needs at least minPairs pairs,
// nine tenths of them won, and a median difference beyond the parent's
// interquartile range.
func compareMetric(workload, metric, better string, bound float64, parent, change map[uint64]float64) comparison {
	c := comparison{workload: workload, metric: metric, parent: sortedValues(parent), change: sortedValues(change)}
	lower := better != "higher"
	beats := func(x, y float64) bool { // x is better than y
		if lower {
			return x < y
		}
		return x > y
	}
	for seed, pv := range parent {
		if cv, ok := change[seed]; ok {
			c.pairs++
			if beats(cv, pv) {
				c.wins++
			}
		}
	}
	pq1, pmed, pq3 := quartiles(c.parent)
	_, cmed, _ := quartiles(c.change)
	c.spread = ratio(pq3-pq1, math.Abs(pmed))
	if lower {
		c.worse = ratio(cmed-pmed, math.Abs(pmed))
	} else {
		c.worse = ratio(pmed-cmed, math.Abs(pmed))
	}
	allBetter := len(c.parent) > 0 && len(c.change) > 0
	for _, cv := range c.change {
		for _, pv := range c.parent {
			allBetter = allBetter && beats(cv, pv)
		}
	}
	switch {
	case len(c.parent) == 0 || len(c.change) == 0:
		c.verdict = "missing"
	case c.spread > bound && allBetter:
		c.verdict = "better (every run)"
	case c.spread > bound:
		c.verdict = "unresolved"
	case c.worse > bound:
		c.verdict = "REGRESSION"
	case c.worse < 0 && c.pairs >= minPairs && float64(c.wins) >= 0.9*float64(c.pairs) && math.Abs(cmed-pmed) > pq3-pq1:
		c.verdict = "gain"
	default:
		c.verdict = "within bound"
	}
	return c
}

// sortedValues lists a side's values in seed order.
func sortedValues(m map[uint64]float64) []float64 {
	seeds := make([]uint64, 0, len(m))
	for s := range m {
		seeds = append(seeds, s)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	out := make([]float64, len(seeds))
	for i, s := range seeds {
		out[i] = m[s]
	}
	return out
}

// cmdCompare compares two record directories by the directions and bounds
// of the BENCHMARK.json at specPath.
func cmdCompare(args []string, specPath string, w io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	parentDir := fs.String("parent", "", "directory of the parent commit's run records (-out)")
	changeDir := fs.String("change", "", "directory of the change's run records (-out)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *parentDir == "" || *changeDir == "" {
		return errors.New("-parent and -change are required")
	}
	b, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	parent, err := loadRuns(*parentDir)
	if err != nil {
		return err
	}
	change, err := loadRuns(*changeDir)
	if err != nil {
		return err
	}
	var rows []comparison
	for _, wl := range sortedKeys(parent) {
		for _, m := range spec.EndToEnd {
			rows = append(rows, compareMetric(wl, m.Name, m.Better, m.Bound, parent[wl][m.Name], change[wl][m.Name]))
		}
	}
	return printComparison(w, rows, spec)
}

func printComparison(w io.Writer, rows []comparison, spec benchSpec) error {
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3] (n)\tchange median [q1, q3] (n)\tworse\tbound\tparent spread\tpairs won\tverdict")
	regressions := 0
	for _, c := range rows {
		pq1, pmed, pq3 := quartiles(c.parent)
		cq1, cmed, cq3 := quartiles(c.change)
		fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g] (%d)\t%.4g [%.4g, %.4g] (%d)\t%+.1f%%\t%.0f%%\t%.1f%%\t%d/%d\t%s\n",
			c.workload, c.metric, pmed, pq1, pq3, len(c.parent), cmed, cq1, cq3, len(c.change),
			100*c.worse, 100*bounds[c.metric], 100*c.spread, c.wins, c.pairs, c.verdict)
		if c.verdict == "REGRESSION" {
			regressions++
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if regressions > 0 {
		return fmt.Errorf("%d metric(s) regressed past their bound", regressions)
	}
	return nil
}
