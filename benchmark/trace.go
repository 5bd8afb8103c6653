package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Times are offsets from the
// tracer's start; Parent is 0 for a root span; Req is the benchmark's op
// index when the boundary can see one (an HTTP header, the harness loop).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Req    int           `json:"req,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory for the traced run; they are written out only
// after the run ends. A nil tracer records nothing, which is what the
// end-to-end run passes around: no hook and no wrapper is installed there.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.t0)
}

// reserve hands out a span ID before the span ends, so a parent's ID can
// travel to its children (for an HTTP op, in a request header).
func (t *tracer) reserve() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// record stores a finished span under a reserved ID (0 reserves one) and
// returns the ID.
func (t *tracer) record(id int, name string, parent, req int, start, end time.Duration) int {
	if t == nil {
		return 0
	}
	if id == 0 {
		id = t.reserve()
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: start, End: end})
	t.mu.Unlock()
	return id
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes maps each span ID to its self time: its duration minus the part
// of its interval that its children cover (overlapping children count once,
// and a child running past its parent's end counts only inside the parent).
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals clipped to
// the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			total += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// acc accumulates the per-layer counts and samples the traced run's hooks
// and wrappers observe. Like the tracer, a nil acc ignores everything.
type acc struct {
	mu      sync.Mutex
	sums    map[string]float64
	samples map[string][]float64
	finals  map[string]float64
}

func newAcc() *acc {
	return &acc{sums: map[string]float64{}, samples: map[string][]float64{}, finals: map[string]float64{}}
}

// set stores a per-layer metric's final value under its own name.
func (a *acc) set(name string, v float64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.finals[name] = v
	a.mu.Unlock()
}

func (a *acc) final(name string) (float64, bool) {
	if a == nil {
		return 0, false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	v, ok := a.finals[name]
	return v, ok
}

func (a *acc) add(key string, v float64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.sums[key] += v
	a.mu.Unlock()
}

func (a *acc) sample(key string, v float64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.samples[key] = append(a.samples[key], v)
	a.mu.Unlock()
}

func (a *acc) sum(key string) float64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sums[key]
}

func (a *acc) values(key string) []float64 {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]float64(nil), a.samples[key]...)
}
