// Package fault is a dependency-free, deterministically seeded
// fault-injection layer: the machinery the chaos oracle uses to prove the
// stack's determinism contract holds *under failure*, not just in the
// happy path.
//
// A Plan is a seeded PRNG plus an ordered rule list. Consumers report
// events to the plan by operation name ("http:/farm/v1/lease",
// "fs:sync", "worker:cell", …) and the plan decides — as a pure function
// of the seed, the rules, and the per-rule event count — whether to
// inject a fault and which kind. Two plans built from the same spec
// observing the same event sequence produce the identical fault
// schedule, which is what makes a chaos run replayable: print the spec,
// re-run, get the same faults.
//
// The package deliberately imports nothing from the rest of the repo (and
// nothing outside the stdlib), so every layer — the store's file I/O
// (fault.FS), the farm's HTTP transport (fault.Transport), worker
// lifecycles (worker:cell crash rules) — can thread a Plan through
// without dependency cycles.
package fault

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Kind enumerates the injectable fault kinds. Consumers interpret the
// subset that makes sense for their operation: the HTTP transport honours
// Drop/Delay/HTTP500/Cut, the fault FS honours Err/ShortWrite, and worker
// lifecycles honour Crash.
type Kind int

const (
	// None means no fault (the zero Decision).
	None Kind = iota
	// Drop fails the operation outright (connection refused / ENOSPC-style
	// error, depending on the consumer).
	Drop
	// Delay stalls the operation by the rule's Delay before letting it
	// proceed untouched.
	Delay
	// HTTP500 substitutes a synthetic 500 response (transport only).
	HTTP500
	// Cut severs a stream mid-flight: the response body errors after the
	// rule's CutBytes bytes (transport only).
	Cut
	// Err fails the operation with an injected error (fs writes/syncs/
	// renames).
	Err
	// ShortWrite makes a write persist only half its payload before
	// failing — the torn-line case the store's replay must survive.
	ShortWrite
	// Crash instructs the consumer to die on the spot (worker lifecycles:
	// RunWorker returns ErrFaultInjected).
	Crash
)

var kindNames = map[Kind]string{
	None: "none", Drop: "drop", Delay: "delay", HTTP500: "500",
	Cut: "cut", Err: "err", ShortWrite: "short", Crash: "crash",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

func kindByName(s string) (Kind, bool) {
	for k, n := range kindNames {
		if n == s {
			return k, true
		}
	}
	return None, false
}

// Rule is one fault-injection rule. Op selects the events it applies to
// (exact match, or a prefix when Op ends in ":"); the trigger fields pick
// which matching events fault. A rule with Prob == 0 triggers purely by
// count — After matching events pass untouched, then every Every-th one
// faults (Every <= 1 means each one), until Count injections have
// happened (Count == 0 means unlimited). With Prob > 0 each eligible
// event faults with that probability, drawn deterministically from the
// plan seed and the rule's event index — so the same seed over the same
// event sequence yields the same schedule.
type Rule struct {
	// Op matches event operation names: exact, or prefix if it ends with
	// ":" ("http:" matches every transport event).
	Op string
	// Kind is the fault to inject.
	Kind Kind
	// After skips the first After matching events entirely.
	After int
	// Every faults every Every-th eligible event (<= 1: every one).
	Every int
	// Count caps total injections from this rule (0: unlimited).
	Count int
	// Prob, when > 0, gates each eligible event on a deterministic
	// pseudo-random draw in [0, 1).
	Prob float64
	// Delay is the stall for Kind == Delay.
	Delay time.Duration
	// CutBytes is how many response-body bytes flow before a Kind == Cut
	// stream severs (0 cuts immediately).
	CutBytes int64
}

// label names the rule in counters and replay output.
func (r Rule) label() string {
	return r.Op + ":" + r.Kind.String()
}

// Injection is one injected fault: the decision a consumer acts on.
type Injection struct {
	Kind     Kind
	Delay    time.Duration
	CutBytes int64
	// Err is the error to surface for Drop/Err/ShortWrite kinds.
	Err error
}

// ErrInjected is the base error of every injected failure; consumers and
// tests can errors.Is against it to tell injected faults from real ones.
var ErrInjected = errors.New("fault: injected")

// injectedError wraps ErrInjected with the rule's label for logs.
type injectedError struct{ label string }

func (e injectedError) Error() string { return "fault: injected (" + e.label + ")" }
func (e injectedError) Is(target error) bool {
	return target == ErrInjected
}

// ruleState tracks one rule's event and injection counts.
type ruleState struct {
	rule     Rule
	events   int64 // matching events observed
	injected int64 // faults actually injected
}

// Plan is a seeded fault schedule: rules plus per-rule counters. Safe for
// concurrent use; the schedule is deterministic as long as each rule's
// matching event stream is serialized (one worker's lease calls, one
// store's appends — the serialization every consumer here already has).
type Plan struct {
	seed uint64
	spec string

	mu    sync.Mutex
	rules []*ruleState
}

// New builds a plan from a seed and rules.
func New(seed uint64, rules ...Rule) *Plan {
	p := &Plan{seed: seed}
	for _, r := range rules {
		p.rules = append(p.rules, &ruleState{rule: r})
	}
	p.spec = p.buildSpec()
	return p
}

// splitmix64 is the classic SplitMix64 mix function: a full-period,
// dependency-free way to turn (seed, rule, event index) into uniform
// bits, so probability draws are pure functions of their inputs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw returns a deterministic uniform float64 in [0, 1) for the given
// rule and event index.
func (p *Plan) draw(ruleIdx int, event int64) float64 {
	x := splitmix64(p.seed ^ splitmix64(uint64(ruleIdx)<<32^uint64(event)))
	return float64(x>>11) / (1 << 53)
}

// matches reports whether the rule applies to the operation.
func matches(ruleOp, op string) bool {
	if strings.HasSuffix(ruleOp, ":") {
		return strings.HasPrefix(op, ruleOp)
	}
	return ruleOp == op
}

// Next reports the operation event to the plan and returns the fault to
// inject, or nil. The first rule that fires wins; every rule's event
// counter still advances, so later rules keep their independent
// schedules.
func (p *Plan) Next(op string) *Injection {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var hit *Injection
	for i, rs := range p.rules {
		if !matches(rs.rule.Op, op) {
			continue
		}
		event := rs.events
		rs.events++
		if hit != nil {
			continue // a rule already fired for this event
		}
		r := rs.rule
		if event < int64(r.After) {
			continue
		}
		if r.Count > 0 && rs.injected >= int64(r.Count) {
			continue
		}
		eligible := event - int64(r.After)
		if r.Every > 1 && eligible%int64(r.Every) != 0 {
			continue
		}
		if r.Prob > 0 && p.draw(i, event) >= r.Prob {
			continue
		}
		rs.injected++
		hit = &Injection{
			Kind:     r.Kind,
			Delay:    r.Delay,
			CutBytes: r.CutBytes,
			Err:      injectedError{label: r.label()},
		}
	}
	return hit
}

// Counts returns the number of injections per rule label — the exact
// accounting the chaos oracle cross-checks against /stats.
func (p *Plan) Counts() map[string]int64 {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]int64, len(p.rules))
	for _, rs := range p.rules {
		out[rs.rule.label()] += rs.injected
	}
	return out
}

// Total returns the total number of injected faults across all rules.
func (p *Plan) Total() int64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var n int64
	for _, rs := range p.rules {
		n += rs.injected
	}
	return n
}

// String renders the plan as a parseable spec — what a failing chaos run
// prints so the identical schedule can be replayed with Parse.
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	return p.spec
}

func (p *Plan) buildSpec() string {
	parts := []string{fmt.Sprintf("seed=%d", p.seed)}
	for _, rs := range p.rules {
		r := rs.rule
		s := r.Op + ":" + r.Kind.String()
		if r.After > 0 {
			s += fmt.Sprintf(",after=%d", r.After)
		}
		if r.Every > 1 {
			s += fmt.Sprintf(",every=%d", r.Every)
		}
		if r.Count > 0 {
			s += fmt.Sprintf(",count=%d", r.Count)
		}
		if r.Prob > 0 {
			s += fmt.Sprintf(",prob=%g", r.Prob)
		}
		if r.Delay > 0 {
			s += fmt.Sprintf(",delay=%s", r.Delay)
		}
		if r.CutBytes > 0 {
			s += fmt.Sprintf(",cut=%d", r.CutBytes)
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, ";")
}

// Parse builds a plan from its spec form:
//
//	seed=7;http:/farm/v1/lease:drop,after=2,count=3;fs:sync:err,every=5
//
// Each ";"-separated clause is either seed=N or op:kind followed by
// ","-separated trigger options (after=N, every=N, count=N, prob=F,
// delay=DUR, cut=N). The op is everything up to the last ":" before the
// kind, so ops containing ":" (http:/path) parse naturally. An empty spec
// yields an empty plan (which injects nothing).
func Parse(spec string) (*Plan, error) {
	var (
		seed  uint64
		rules []Rule
	)
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		if v, ok := strings.CutPrefix(clause, "seed="); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: bad seed %q: %v", v, err)
			}
			seed = n
			continue
		}
		fields := strings.Split(clause, ",")
		head := fields[0]
		colon := strings.LastIndex(head, ":")
		if colon <= 0 || colon == len(head)-1 {
			return nil, fmt.Errorf("fault: rule %q must be op:kind[,opts]", clause)
		}
		kind, ok := kindByName(head[colon+1:])
		if !ok || kind == None {
			return nil, fmt.Errorf("fault: unknown fault kind %q in %q", head[colon+1:], clause)
		}
		r := Rule{Op: head[:colon], Kind: kind}
		for _, f := range fields[1:] {
			k, v, found := strings.Cut(f, "=")
			if !found {
				return nil, fmt.Errorf("fault: bad rule option %q in %q", f, clause)
			}
			var err error
			switch k {
			case "after":
				r.After, err = strconv.Atoi(v)
			case "every":
				r.Every, err = strconv.Atoi(v)
			case "count":
				r.Count, err = strconv.Atoi(v)
			case "prob":
				r.Prob, err = strconv.ParseFloat(v, 64)
			case "delay":
				r.Delay, err = time.ParseDuration(v)
			case "cut":
				r.CutBytes, err = strconv.ParseInt(v, 10, 64)
			default:
				return nil, fmt.Errorf("fault: unknown rule option %q in %q", k, clause)
			}
			if err != nil {
				return nil, fmt.Errorf("fault: bad value in %q: %v", clause, err)
			}
		}
		if r.Prob < 0 || r.Prob > 1 {
			return nil, fmt.Errorf("fault: prob must be in [0,1], got %g in %q", r.Prob, clause)
		}
		rules = append(rules, r)
	}
	return New(seed, rules...), nil
}
