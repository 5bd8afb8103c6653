// Command benchjson converts `go test -bench` output on stdin into a
// stable JSON snapshot — the committed benchmark trajectory (BENCH_PR3.json
// and successors) that lets future PRs diff ns/op, allocs/op, and custom
// metrics against a recorded baseline.
//
// Usage:
//
//	go test -run '^$' -bench Incremental -benchmem -benchtime 1x . | benchjson -out BENCH_PR3.json
//	benchjson -compare BENCH_PR4.json -against bench-ci.json
//
// The output is deterministic for a given input: benchmarks keep their
// input order, metric maps marshal with sorted keys, and no timestamps are
// embedded (goos/goarch/cpu identify the machine class instead). With
// several packages on stdin, pkg records the first.
//
// Repeated result lines of one benchmark (`go test -count N`) fold into
// one entry, in first-seen order: ns/op is their median, with the
// quartiles and the line count beside it; allocs/op and B/op are the
// largest of the group, which keeps the allocation gate conservative; each
// custom metric is its median. A benchmark that ran once keeps exactly the
// fields a single line gives.
//
// -compare is the CI regression guard: it diffs a current snapshot
// (-against, or parsed from stdin when omitted) against a committed
// baseline, matching benchmarks by name with any trailing GOMAXPROCS
// suffix ("-8") stripped. Allocation growth beyond -alloc-tolerance is a
// hard failure (allocs/op is deterministic, so growth is a real
// regression); growth of the median ns/op beyond -ns-noise only warns,
// with the current quartiles beside it, because shared CI runners are too
// noisy for wall-clock gates. A baseline benchmark missing from the
// current snapshot also fails — a silently dropped benchmark is how
// trajectories rot.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one benchmark's result: one parsed line, or the fold of
// its repeated lines (Count > 1).
type Benchmark struct {
	Name    string  `json:"name"`
	Runs    int64   `json:"runs"`
	NsPerOp float64 `json:"ns_per_op"`
	// NsQ1 and NsQ3 are the quartiles of ns/op over Count lines; all three
	// are omitted for a benchmark that ran once.
	NsQ1       float64            `json:"ns_per_op_q1,omitempty"`
	NsQ3       float64            `json:"ns_per_op_q3,omitempty"`
	Count      int                `json:"count,omitempty"`
	BytesPerOp *float64           `json:"bytes_per_op,omitempty"`
	AllocsOp   *float64           `json:"allocs_per_op,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Snapshot is the committed document.
type Snapshot struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "", "output path for the JSON snapshot (default: stdout)")
	compareBase := flag.String("compare", "", "committed baseline snapshot to diff against (regression guard mode)")
	against := flag.String("against", "", "current snapshot JSON for -compare (default: parse `go test -bench` output from stdin)")
	allocTol := flag.Float64("alloc-tolerance", 0.05, "allowed fractional allocs/op growth before -compare fails")
	nsNoise := flag.Float64("ns-noise", 0.50, "fractional ns/op growth beyond which -compare warns (never fails)")
	flag.Parse()

	if *compareBase != "" {
		base, err := readSnapshot(*compareBase)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		var cur *Snapshot
		if *against != "" {
			cur, err = readSnapshot(*against)
		} else {
			cur, err = parse(bufio.NewScanner(os.Stdin))
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		if !compare(os.Stdout, base, cur, *allocTol, *nsNoise) {
			os.Exit(1)
		}
		return
	}

	snap, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(snap.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	data, err := json.MarshalIndent(snap, "", "\t")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func readSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	snap := new(Snapshot)
	if err := json.Unmarshal(data, snap); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return snap, nil
}

// gomaxprocsSuffix is the "-8" tail `go test` appends to benchmark names
// when GOMAXPROCS > 1. Stripped before matching so snapshots taken on
// machines of different widths still line up.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

func benchKey(name string) string {
	return gomaxprocsSuffix.ReplaceAllString(name, "")
}

// compare diffs cur against base and reports per-benchmark deltas to w.
// It returns false — the CI-failing outcome — on allocs/op growth beyond
// allocTol or on a baseline benchmark missing from cur. ns/op growth
// beyond nsNoise (and any bytes/op growth) only warns.
func compare(w io.Writer, base, cur *Snapshot, allocTol, nsNoise float64) bool {
	curBy := make(map[string]*Benchmark, len(cur.Benchmarks))
	for i := range cur.Benchmarks {
		curBy[benchKey(cur.Benchmarks[i].Name)] = &cur.Benchmarks[i]
	}
	pct := func(old, new float64) string {
		if old == 0 {
			return "n/a"
		}
		return fmt.Sprintf("%+.1f%%", 100*(new-old)/old)
	}
	ok := true
	warnings := 0
	for i := range base.Benchmarks {
		b := &base.Benchmarks[i]
		key := benchKey(b.Name)
		c, found := curBy[key]
		if !found {
			fmt.Fprintf(w, "FAIL %s: in baseline but missing from current run\n", key)
			ok = false
			continue
		}
		if b.AllocsOp != nil && c.AllocsOp != nil && *c.AllocsOp > *b.AllocsOp*(1+allocTol) {
			fmt.Fprintf(w, "FAIL %s: allocs/op %v -> %v (%s, tolerance %.0f%%)\n",
				key, *b.AllocsOp, *c.AllocsOp, pct(*b.AllocsOp, *c.AllocsOp), 100*allocTol)
			ok = false
		}
		if b.NsPerOp > 0 && c.NsPerOp > b.NsPerOp*(1+nsNoise) {
			spread := ""
			if c.Count > 1 {
				spread = fmt.Sprintf(" [q1 %.0f, q3 %.0f over %d runs]", c.NsQ1, c.NsQ3, c.Count)
			}
			fmt.Fprintf(w, "warn %s: ns/op %.0f -> %.0f%s (%s, noise threshold %.0f%%; not failing)\n",
				key, b.NsPerOp, c.NsPerOp, spread, pct(b.NsPerOp, c.NsPerOp), 100*nsNoise)
			warnings++
		}
	}
	fmt.Fprintf(w, "compared %d baseline benchmarks against %d current: %s, %d warning(s)\n",
		len(base.Benchmarks), len(cur.Benchmarks),
		map[bool]string{true: "no regressions", false: "REGRESSIONS FOUND"}[ok], warnings)
	return ok
}

// parse consumes `go test -bench` output: header lines (goos/goarch/pkg/
// cpu) and result lines of the form
//
//	BenchmarkName-8   12   345 ns/op   6 B/op   7 allocs/op   8.9 custom/metric
//
// Lines that match neither shape (PASS, ok, warnings) are skipped, and
// repeated lines of one benchmark are folded (see fold).
func parse(sc *bufio.Scanner) (*Snapshot, error) {
	snap := &Snapshot{}
	var lines []Benchmark
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			snap.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			snap.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			if snap.Pkg == "" {
				snap.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			}
			continue
		case strings.HasPrefix(line, "cpu:"):
			snap.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		runs, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		b := Benchmark{Name: fields[0], Runs: runs}
		for k := 2; k+1 < len(fields); k += 2 {
			val, err := strconv.ParseFloat(fields[k], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q in %q", fields[k], line)
			}
			switch unit := fields[k+1]; unit {
			case "ns/op":
				b.NsPerOp = val
			case "B/op":
				v := val
				b.BytesPerOp = &v
			case "allocs/op":
				v := val
				b.AllocsOp = &v
			default:
				if b.Metrics == nil {
					b.Metrics = map[string]float64{}
				}
				b.Metrics[unit] = val
			}
		}
		lines = append(lines, b)
	}
	snap.Benchmarks = fold(lines)
	return snap, sc.Err()
}

// fold groups result lines by benchKey in first-seen order and reduces
// each repeated group to one entry: the median ns/op with its quartiles
// and the line count, the largest allocs/op and B/op, and the median of
// each custom metric. A group of one is returned unchanged.
func fold(lines []Benchmark) []Benchmark {
	var order []string
	groups := map[string][]Benchmark{}
	for _, b := range lines {
		key := benchKey(b.Name)
		if _, seen := groups[key]; !seen {
			order = append(order, key)
		}
		groups[key] = append(groups[key], b)
	}
	out := make([]Benchmark, 0, len(order))
	for _, key := range order {
		g := groups[key]
		if len(g) == 1 {
			out = append(out, g[0])
			continue
		}
		b := Benchmark{Name: g[0].Name, Runs: g[0].Runs, Count: len(g)}
		ns := make([]float64, len(g))
		metrics := map[string][]float64{}
		for i, l := range g {
			ns[i] = l.NsPerOp
			b.BytesPerOp = maxOf(b.BytesPerOp, l.BytesPerOp)
			b.AllocsOp = maxOf(b.AllocsOp, l.AllocsOp)
			for unit, v := range l.Metrics {
				metrics[unit] = append(metrics[unit], v)
			}
		}
		b.NsQ1, b.NsPerOp, b.NsQ3 = quantile(ns, 0.25), quantile(ns, 0.5), quantile(ns, 0.75)
		if len(metrics) > 0 {
			b.Metrics = make(map[string]float64, len(metrics))
			for unit, vs := range metrics {
				b.Metrics[unit] = quantile(vs, 0.5)
			}
		}
		out = append(out, b)
	}
	return out
}

// maxOf returns the larger of two optional values (nil when both are).
func maxOf(a, b *float64) *float64 {
	if a == nil || (b != nil && *b > *a) {
		return b
	}
	return a
}

// quantile returns the p-quantile of vs by linear interpolation between
// closest ranks; vs is sorted in place.
func quantile(vs []float64, p float64) float64 {
	sort.Float64s(vs)
	pos := p * float64(len(vs)-1)
	lo := int(pos)
	if lo+1 >= len(vs) {
		return vs[lo]
	}
	return vs[lo] + (pos-float64(lo))*(vs[lo+1]-vs[lo])
}
