package fault

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// newTransportSleep is NewTransport over http.DefaultTransport with sleep
// standing in for time.Sleep, so delay rules run on a fake clock.
func newTransportSleep(plan *Plan, sleep func(time.Duration)) http.RoundTripper {
	rt := NewTransport(plan, nil)
	rt.(*Transport).sleep = sleep
	return rt
}

func TestPlanCountTriggers(t *testing.T) {
	p := New(1, Rule{Op: "op", Kind: Drop, After: 2, Every: 2, Count: 2})
	var got []bool
	for i := 0; i < 10; i++ {
		got = append(got, p.Next("op") != nil)
	}
	// Events 0,1 skipped (after=2); eligible events 2,4,6,... every 2nd;
	// capped at 2 injections → events 2 and 4 fault.
	want := []bool{false, false, true, false, true, false, false, false, false, false}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("schedule %v, want %v", got, want)
	}
	if c := p.Counts()["op:drop"]; c != 2 {
		t.Fatalf("counts: got %d injections, want 2", c)
	}
	if p.Total() != 2 {
		t.Fatalf("total: got %d, want 2", p.Total())
	}
}

func TestPlanPrefixMatchAndMiss(t *testing.T) {
	p := New(1, Rule{Op: "http:", Kind: Drop})
	if p.Next("fs:sync") != nil {
		t.Fatal("fs event matched an http: rule")
	}
	if p.Next("http:/farm/v1/lease") == nil {
		t.Fatal("prefix rule did not match")
	}
	if p.Next("http") != nil {
		t.Fatal("bare \"http\" must not match the \"http:\" prefix rule")
	}
}

func TestPlanFirstRuleWinsButCountersAdvance(t *testing.T) {
	p := New(1,
		Rule{Op: "op", Kind: Drop, Count: 1},
		Rule{Op: "op", Kind: Delay, After: 0, Count: 2, Delay: time.Millisecond},
	)
	// Event 0: rule 1 fires (drop); rule 2's event counter still advances.
	if inj := p.Next("op"); inj == nil || inj.Kind != Drop {
		t.Fatalf("event 0: got %+v, want drop", inj)
	}
	// Events 1, 2: rule 1 exhausted, rule 2 fires.
	for i := 1; i <= 2; i++ {
		if inj := p.Next("op"); inj == nil || inj.Kind != Delay {
			t.Fatalf("event %d: got %+v, want delay", i, inj)
		}
	}
	if p.Next("op") != nil {
		t.Fatal("event 3: all rules exhausted, want none")
	}
}

func TestPlanProbDeterministic(t *testing.T) {
	run := func(seed uint64) []bool {
		p := New(seed, Rule{Op: "op", Kind: Drop, Prob: 0.5})
		var out []bool
		for i := 0; i < 64; i++ {
			out = append(out, p.Next("op") != nil)
		}
		return out
	}
	a, b := run(7), run(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	c := run(8)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical 64-event schedules (draw is not mixing)")
	}
	hits := 0
	for _, h := range a {
		if h {
			hits++
		}
	}
	if hits == 0 || hits == 64 {
		t.Fatalf("prob=0.5 over 64 events injected %d times — draw looks degenerate", hits)
	}
}

func TestParseRoundTrip(t *testing.T) {
	spec := "seed=7;http:/farm/v1/lease:drop,after=2,count=3;fs:sync:err,every=5;worker:cell:crash,after=2;http::delay,prob=0.25,delay=5ms;http:/farm/v1/result:cut,cut=128"
	p, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	if p.seed != 7 {
		t.Fatalf("seed %d, want 7", p.seed)
	}
	p2, err := Parse(p.String())
	if err != nil {
		t.Fatalf("re-parse of %q: %v", p.String(), err)
	}
	if p.String() != p2.String() {
		t.Fatalf("spec did not round-trip: %q vs %q", p.String(), p2.String())
	}
	// The round-tripped plan must produce the identical schedule.
	for i := 0; i < 20; i++ {
		a, b := p.Next("http:/farm/v1/lease"), p2.Next("http:/farm/v1/lease")
		if (a == nil) != (b == nil) {
			t.Fatalf("event %d: original and round-tripped plans disagree", i)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"seed=x",
		"op",            // no kind
		"op:zap",        // unknown kind
		"op:drop,bogus", // option without =
		"op:drop,when=3",
		"op:drop,after=x",
		"op:drop,prob=1.5",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
	p, err := Parse("")
	if err != nil || p.Total() != 0 {
		t.Fatalf("empty spec: plan %v err %v, want empty plan", p, err)
	}
	if p.Next("anything") != nil {
		t.Fatal("empty plan injected a fault")
	}
}

func TestInjectedErrorIs(t *testing.T) {
	p := New(1, Rule{Op: "op", Kind: Err})
	inj := p.Next("op")
	if inj == nil || !errors.Is(inj.Err, ErrInjected) {
		t.Fatalf("injected error %v does not match ErrInjected", inj)
	}
}

func TestNilPlanIsInert(t *testing.T) {
	var p *Plan
	if p.Next("op") != nil || p.Total() != 0 || p.Counts() != nil || p.String() != "" {
		t.Fatal("nil plan must be a no-op")
	}
	if NewFS(nil, nil) == nil {
		t.Fatal("NewFS(nil, nil) must return the OS filesystem")
	}
	if NewTransport(nil, nil) != http.DefaultTransport {
		t.Fatal("NewTransport(nil, nil) must return the base transport unwrapped")
	}
}

func TestFaultFSWriteSyncFaults(t *testing.T) {
	dir := t.TempDir()
	plan := New(1,
		Rule{Op: "fs:write", Kind: ShortWrite, After: 1, Count: 1},
		Rule{Op: "fs:sync", Kind: Err, Count: 1},
	)
	fs := NewFS(plan, nil)
	f, err := fs.OpenFile(filepath.Join(dir, "j"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("first sync: %v, want injected error", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("second sync (rule exhausted): %v", err)
	}
	if _, err := f.Write([]byte("complete\n")); err != nil {
		t.Fatalf("first write (after=1 skips it): %v", err)
	}
	n, err := f.Write([]byte("12345678"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("short write: err=%v, want injected", err)
	}
	if n != 4 {
		t.Fatalf("short write persisted %d bytes, want half (4)", n)
	}
	if _, err := f.Write([]byte("ok")); err != nil {
		t.Fatalf("write after exhaustion: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "j"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "complete\n1234ok" {
		t.Fatalf("on-disk bytes %q, want torn half-line in place", data)
	}
}

func TestFaultFSRenameCreateOpenFaults(t *testing.T) {
	dir := t.TempDir()
	plan := New(1,
		Rule{Op: "fs:rename", Kind: Err, Count: 1},
		Rule{Op: "fs:create", Kind: Err, Count: 1},
		Rule{Op: "fs:open", Kind: Err, After: 1, Count: 1},
	)
	fs := NewFS(plan, nil)
	if _, err := fs.CreateTemp(dir, "t-"); !errors.Is(err, ErrInjected) {
		t.Fatalf("create: %v, want injected", err)
	}
	tf, err := fs.CreateTemp(dir, "t-")
	if err != nil {
		t.Fatal(err)
	}
	tf.Close()
	if err := fs.Rename(tf.Name(), filepath.Join(dir, "dst")); !errors.Is(err, ErrInjected) {
		t.Fatalf("rename: %v, want injected", err)
	}
	if err := fs.Rename(tf.Name(), filepath.Join(dir, "dst")); err != nil {
		t.Fatalf("second rename: %v", err)
	}
	if _, err := fs.OpenFile(filepath.Join(dir, "dst"), os.O_RDWR, 0o644); err != nil {
		t.Fatalf("first open (after=1): %v", err)
	}
	if _, err := fs.OpenFile(filepath.Join(dir, "dst"), os.O_RDWR, 0o644); !errors.Is(err, ErrInjected) {
		t.Fatalf("second open: %v, want injected", err)
	}
	// Read-only opens and MkdirAll/Remove are never faulted.
	if _, err := fs.Open(filepath.Join(dir, "dst")); err != nil {
		t.Fatalf("read-only open: %v", err)
	}
	if err := fs.MkdirAll(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove(filepath.Join(dir, "dst")); err != nil {
		t.Fatal(err)
	}
}

func TestTransportDrop500CutDelay(t *testing.T) {
	body := strings.Repeat("x", 1024)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, body)
	}))
	defer ts.Close()

	plan := New(1,
		Rule{Op: "http:/a", Kind: Drop, Count: 1},
		Rule{Op: "http:/a", Kind: HTTP500, Count: 1},
		Rule{Op: "http:/a", Kind: Cut, CutBytes: 100, Count: 1},
		Rule{Op: "http:/a", Kind: Delay, Delay: 3 * time.Second, Count: 1},
	)
	var slept time.Duration
	client := &http.Client{Transport: newTransportSleep(plan, func(d time.Duration) { slept += d })}

	// Event 0: drop.
	if _, err := client.Get(ts.URL + "/a"); err == nil || !errors.Is(err, ErrInjected) {
		t.Fatalf("drop: err %v, want injected", err)
	}
	// Event 1: synthetic 500.
	resp, err := client.Get(ts.URL + "/a")
	if err != nil || resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("500: resp %v err %v", resp, err)
	}
	resp.Body.Close()
	// Event 2: cut after 100 bytes.
	resp, err = client.Get(ts.URL + "/a")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("cut: read err %v, want injected", err)
	}
	if len(data) != 100 {
		t.Fatalf("cut: read %d bytes before the cut, want 100", len(data))
	}
	// Event 3: delay through the injected sleep, then success.
	resp, err = client.Get(ts.URL + "/a")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("delay: resp %v err %v", resp, err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if slept != 3*time.Second {
		t.Fatalf("delay slept %v, want 3s on the injected clock", slept)
	}
	// Event 4: rules exhausted — untouched.
	resp, err = client.Get(ts.URL + "/a")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("clean: resp %v err %v", resp, err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(got) != body {
		t.Fatal("clean request did not round-trip the full body")
	}
	// Other paths never match /a rules.
	resp, err = client.Get(ts.URL + "/b")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("other path: resp %v err %v", resp, err)
	}
	resp.Body.Close()
}

func TestTransportCutsStreamingRequestBody(t *testing.T) {
	// The handler runs on the server's goroutine: it stores the count
	// atomically, and the test reads it only after ts.Close, which waits
	// for the handler to return.
	var received atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n, _ := io.Copy(io.Discard, r.Body)
		received.Store(n)
	}))
	defer ts.Close()
	plan := New(1, Rule{Op: "http:/up", Kind: Cut, CutBytes: 64, Count: 1})
	client := &http.Client{Transport: NewTransport(plan, nil)}

	pr, pw := io.Pipe()
	go func() {
		pw.Write([]byte(strings.Repeat("y", 4096))) //nolint:errcheck // cut mid-write is the point
		pw.Close()
	}()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/up", pr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Do(req); err == nil {
		t.Fatal("cut upload: want a transport error")
	}
	ts.Close()
	if n := received.Load(); n > 64 {
		t.Fatalf("server received %d bytes past the 64-byte cut", n)
	}
}

func TestBackoffDeterministicCappedJittered(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Cap: time.Second, Seed: 42}
	for attempt := 0; attempt < 8; attempt++ {
		d1, d2 := b.Delay(attempt), b.Delay(attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: non-deterministic delay %v vs %v", attempt, d1, d2)
		}
		exp := 100 * time.Millisecond << attempt
		if exp > time.Second {
			exp = time.Second
		}
		if d1 < exp/2 || d1 >= exp {
			t.Fatalf("attempt %d: delay %v outside [%v, %v)", attempt, d1, exp/2, exp)
		}
	}
	if d := b.Delay(-3); d != b.Delay(0) {
		t.Fatalf("negative attempt: %v, want the attempt-0 delay", d)
	}
	// Zero-value defaults.
	var zb Backoff
	if d := zb.Delay(0); d < 50*time.Millisecond || d >= 100*time.Millisecond {
		t.Fatalf("zero-value base delay %v outside [50ms, 100ms)", d)
	}
	if d := zb.Delay(30); d < 2500*time.Millisecond || d >= 5*time.Second {
		t.Fatalf("zero-value capped delay %v outside [2.5s, 5s)", d)
	}
	// Different seeds decorrelate.
	other := Backoff{Base: 100 * time.Millisecond, Cap: time.Second, Seed: 43}
	same := true
	for attempt := 0; attempt < 8; attempt++ {
		if b.Delay(attempt) != other.Delay(attempt) {
			same = false
		}
	}
	if same {
		t.Fatal("two seeds produced identical 8-attempt jitter traces")
	}
}
