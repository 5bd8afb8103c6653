// Command ogwsbench is the repository's end-to-end benchmark: three
// workloads over the OGWS stack, from a library solve to a service request
// with a durable store, each run in a fresh process, with a correctness
// check against committed reference results and a traced run that splits
// the time by layer. See README.md.
//
// Usage (from the checkout root; benchmark/run.sh builds the binary):
//
//	bash benchmark/run.sh [run] -workload <name|all> [-seed N] [-seconds S] [-trace 0|1]
//	                      [-runs K] [-out DIR] [-spans FILE]
//	bash benchmark/run.sh compare -parent DIR -change DIR
//	bash benchmark/run.sh write-reference [-o benchmark/testdata/reference.json]
//
// A single run prints its metadata as one JSON line and its result as the
// last line of standard output:
//
//	{"correct": true, "attempted": 208, "failed": 0, "metrics": {"setup_s": {"value": 0.07, "unit": "s"}, ...}}
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

func main() {
	args := os.Args[1:]
	cmd := "run"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, args = args[0], args[1:]
	}
	var err error
	switch cmd {
	case "run":
		err = cmdRun(args, os.Stdout)
	case "compare":
		var spec string
		if spec, err = findBenchSpec(); err == nil {
			err = cmdCompare(args, spec, os.Stdout)
		}
	case "write-reference":
		err = cmdWriteReference(args)
	default:
		err = fmt.Errorf("unknown command %q (run, compare, write-reference)", cmd)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ogwsbench:", err)
		os.Exit(1)
	}
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ogwsbench: "+format+"\n", args...)
}

// record is what -out stores per run: the metadata and the result line.
type record struct {
	Meta   *meta   `json:"meta"`
	Result *result `json:"result"`
}

func cmdRun(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+", or all (each in its own process)")
	seed := fs.Uint64("seed", 1, "workload seed: orders the ops of every round")
	seconds := fs.Float64("seconds", 36, "timed window in seconds: rounds of the catalog run until it has passed")
	trace := fs.Int("trace", 0, "1 = traced run: hooks and wrappers on, per-layer metrics printed instead of end-to-end ones")
	spans := fs.String("spans", "", "traced run: write the recorded spans to this JSON file")
	runs := fs.Int("runs", 1, "repeat the run with seeds seed, seed+1, …, each in its own process")
	out := fs.String("out", "", "directory to write one JSON record per run into (default: none)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *workload == "" {
		return errors.New("-workload is required")
	}
	if *workload == "all" || *runs > 1 {
		return runChildren(*workload, *seed, *seconds, *trace, *runs, *out)
	}
	ref, err := loadReference()
	if err != nil {
		return err
	}
	cfg := config{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		spansOut: *spans, setupRuns: setupRuns,
	}
	res, m, err := runWorkload(cfg, ref, logf)
	if err != nil {
		return err
	}
	for _, f := range m.Failures {
		logf("failed %s", f)
	}
	if *out != "" {
		if err := writeRecord(*out, record{m, res}); err != nil {
			return err
		}
	}
	mb, err := json.Marshal(map[string]*meta{"meta": m})
	if err != nil {
		return err
	}
	rb, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n%s\n", mb, rb)
	return err
}

func writeRecord(dir string, rec record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d", rec.Meta.Workload, rec.Meta.Seed)
	if rec.Meta.Trace {
		name += "-trace"
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".json"), append(b, '\n'), 0o644)
}

// runChildren re-executes this binary once per (workload, seed), so every
// run has its own process (its own set-up, heap and peak RSS), and prints
// one summary line per run to standard error.
func runChildren(workload string, seed uint64, seconds float64, trace, runs int, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	names := []string{workload}
	if workload == "all" {
		names = workloadNames
	}
	failed := false
	for _, w := range names {
		for k := 0; k < max(runs, 1); k++ {
			s := seed + uint64(k)
			args := []string{"run", "-workload", w, "-seed", strconv.FormatUint(s, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace)}
			if out != "" {
				args = append(args, "-out", out)
			}
			c := exec.Command(exe, args...)
			var stdout bytes.Buffer
			c.Stdout, c.Stderr = &stdout, os.Stderr
			if err := c.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w", w, s, err)
			}
			res, err := lastResult(stdout.Bytes())
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, s, err)
			}
			failed = failed || !res.Correct
			fmt.Fprintf(os.Stderr, "%-14s seed %-4d correct=%-5v attempted=%-4d failed=%-3d %s\n",
				w, s, res.Correct, res.Attempted, res.Failed, formatMetrics(res.Metrics))
		}
	}
	if failed {
		return errors.New("a run failed its correctness check")
	}
	return nil
}

// lastResult parses the last line of a run's standard output.
func lastResult(out []byte) (*result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &res, nil
}

func formatMetrics(m map[string]metricValue) string {
	var b strings.Builder
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(&b, "%s=%.4g%s ", k, m[k].Value, m[k].Unit)
	}
	return strings.TrimSpace(b.String())
}

func cmdWriteReference(args []string) error {
	fs := flag.NewFlagSet("write-reference", flag.ContinueOnError)
	def := filepath.Join("testdata", "reference.json")
	if _, err := os.Stat(filepath.Join("benchmark", "testdata")); err == nil {
		def = filepath.Join("benchmark", "testdata", "reference.json")
	}
	outPath := fs.String("o", def, "reference file to write")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ref, err := catalogReference(logf)
	if err != nil {
		return err
	}
	if err := writeReference(*outPath, ref); err != nil {
		return err
	}
	logf("wrote %d entries to %s; rebuild to embed them", len(ref), *outPath)
	return nil
}
