package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// rusageCPU is the process CPU time (user + system) a getrusage record
// reports.
func rusageCPU(ru *syscall.Rusage) time.Duration {
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return rusageCPU(&ru)
}

// parseVmHWM extracts the peak resident set size in kB from the text of
// /proc/<pid>/status.
func parseVmHWM(status string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("malformed VmHWM line %q", line)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("no VmHWM line")
}

// peakRSSMB is the process's resident-set high-water mark in MB (10⁶ bytes).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	kb, err := parseVmHWM(string(b))
	if err != nil {
		return 0, err
	}
	return float64(kb) * 1024 / 1e6, nil
}

// Runtime metrics read at the window's edges.
const (
	mGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU = "/cpu/classes/total:cpu-seconds"
	mAllocs   = "/gc/heap/allocs:bytes"
	mGCPauses = "/sched/pauses/total/gc:seconds"
)

// procSnap is the process state at one edge of the timed window.
type procSnap struct {
	wall     time.Time
	cpu      time.Duration
	gcCPU    float64
	totalCPU float64
	allocs   uint64
	pauses   *metrics.Float64Histogram
}

func snapProcess() procSnap {
	s := []metrics.Sample{{Name: mGCCPU}, {Name: mTotalCPU}, {Name: mAllocs}, {Name: mGCPauses}}
	metrics.Read(s)
	p := procSnap{wall: time.Now(), cpu: processCPU()}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		p.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		p.totalCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		p.allocs = s[2].Value.Uint64()
	}
	if s[3].Value.Kind() == metrics.KindFloat64Histogram {
		p.pauses = s[3].Value.Float64Histogram()
	}
	return p
}

// procDelta is what happened to the process between two snapshots.
type procDelta struct {
	wall, cpu   time.Duration
	gcShare     float64
	allocBytes  float64
	pauseP99Sec float64
}

func diffProcess(a, b procSnap) procDelta {
	d := procDelta{
		wall:       b.wall.Sub(a.wall),
		cpu:        b.cpu - a.cpu,
		gcShare:    ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU),
		allocBytes: float64(b.allocs - a.allocs),
	}
	if a.pauses != nil && b.pauses != nil && len(a.pauses.Counts) == len(b.pauses.Counts) {
		d.pauseP99Sec = histQuantile(b.pauses, a.pauses.Counts, 0.99)
	}
	return d
}

// histQuantile is the q-quantile of the histogram h minus the counts base
// (the same buckets read earlier), reported as the upper edge of the bucket
// holding it (the lower edge for the unbounded last bucket).
func histQuantile(h *metrics.Float64Histogram, base []uint64, q float64) float64 {
	var total uint64
	counts := make([]uint64, len(h.Counts))
	for i, c := range h.Counts {
		counts[i] = c - base[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= want {
			hi := h.Buckets[i+1]
			if hi > 1e300 {
				return h.Buckets[i]
			}
			return hi
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}

// meta is the run metadata every output carries.
type meta struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Started    string  `json:"started"`
	// Rounds is how many rounds of the catalog the window held;
	// Attempted/OK/Failed/Verified count its ops.
	Rounds    int `json:"rounds"`
	Attempted int `json:"attempted"`
	OK        int `json:"ok"`
	Failed    int `json:"failed"`
	Verified  int `json:"verified"`
	// TailMs is the highest nearest-rank percentile of all op latencies
	// with at least ten samples beyond it, TailPct that percentile and
	// Samples the count (no tail below twenty). It is reported here and not
	// as a metric: ten samples beyond it are the slowest ten of a mixed
	// catalog, and the shared host's slow stretches move them by more than
	// any bound a metric may have.
	TailMs  float64 `json:"tail_ms,omitempty"`
	TailPct float64 `json:"tail_pct,omitempty"`
	Samples int     `json:"latency_samples"`
	// SetupSec is every set-up's time in the order made, the samples of
	// setup_s.
	SetupSec []float64 `json:"setup_sec"`
	// Kinds is each op kind's count, work units per op and median latency,
	// the terms of latency_p50_ms and throughput_ops_s.
	Kinds    map[string]kindStat `json:"kinds"`
	Failures []string            `json:"failures,omitempty"`
}

type kindStat struct {
	N        int     `json:"n"`
	Units    int     `json:"units"`
	MedianMs float64 `json:"median_ms"`
}

func newMeta(cfg config) meta {
	return meta{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the go command stamped into the binary; a
// build outside a git checkout has none.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}
