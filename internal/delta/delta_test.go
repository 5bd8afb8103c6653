package delta

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"
)

func raw(s string) json.RawMessage { return json.RawMessage(s) }

// version returns the version of l's most recent event (0 if none yet).
func version(l *Log) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next - 1
}

// get returns h's log for key, or nil if none was ever created.
func get(h *Hub, key string) *Log {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.logs[key]
}

func versions(evs []Event) []uint64 {
	out := make([]uint64, len(evs))
	for i, ev := range evs {
		out[i] = ev.Version
	}
	return out
}

func TestAppendAssignsMonotonicVersions(t *testing.T) {
	l := NewLog(0)
	if got := version(l); got != 0 {
		t.Fatalf("Version of empty log = %d", got)
	}
	for i := 1; i <= 5; i++ {
		if v := l.Append(raw(fmt.Sprintf(`{"i":%d}`, i))); v != uint64(i) {
			t.Fatalf("Append #%d → version %d", i, v)
		}
	}
	if got := version(l); got != 5 {
		t.Fatalf("Version = %d, want 5", got)
	}
}

func TestAfterCursorSemantics(t *testing.T) {
	l := NewLog(0)
	for i := 1; i <= 4; i++ {
		l.Append(raw(fmt.Sprintf(`%d`, i)))
	}
	evs, gapped, done := l.After(0)
	if len(evs) != 4 || gapped || done {
		t.Fatalf("After(0) = %d events, gapped=%v done=%v", len(evs), gapped, done)
	}
	evs, gapped, _ = l.After(2)
	if want := []uint64{3, 4}; fmt.Sprint(versions(evs)) != fmt.Sprint(want) || gapped {
		t.Fatalf("After(2) = %v gapped=%v", versions(evs), gapped)
	}
	if evs, _, _ := l.After(4); len(evs) != 0 {
		t.Fatalf("After(latest) returned %d events", len(evs))
	}
	// Event payloads must round-trip untouched.
	evs, _, _ = l.After(3)
	if string(evs[0].Data) != "4" {
		t.Fatalf("Data = %s", evs[0].Data)
	}
}

// TestLateSubscriberCatchUp: a reader that attaches after events were
// published gets the full retained history from cursor 0.
func TestLateSubscriberCatchUp(t *testing.T) {
	l := NewLog(16)
	for i := 1; i <= 10; i++ {
		l.Append(raw(`{}`))
	}
	evs, gapped, done := l.After(0)
	if len(evs) != 10 || gapped || done {
		t.Fatalf("late subscriber: %d events gapped=%v done=%v", len(evs), gapped, done)
	}
	if evs[0].Version != 1 || evs[9].Version != 10 {
		t.Fatalf("versions %d..%d", evs[0].Version, evs[9].Version)
	}
}

// TestSlowConsumerGap: when the ring evicts past a reader's cursor the
// reader is told explicitly instead of being fed a silent hole.
func TestSlowConsumerGap(t *testing.T) {
	l := NewLog(3)
	for i := 1; i <= 10; i++ {
		l.Append(raw(`{}`))
	}
	evs, gapped, _ := l.After(2) // events 3..7 evicted (only 8,9,10 retained)
	if !gapped {
		t.Fatal("evicted cursor not flagged as gapped")
	}
	if want := []uint64{8, 9, 10}; fmt.Sprint(versions(evs)) != fmt.Sprint(want) {
		t.Fatalf("retained tail = %v, want %v", versions(evs), want)
	}
	// A cursor exactly at the eviction boundary is NOT gapped: cursor 7
	// has seen everything up to the oldest retained minus one.
	if _, gapped, _ := l.After(7); gapped {
		t.Fatal("boundary cursor flagged as gapped")
	}
}

func TestWaitWakesOnAppend(t *testing.T) {
	l := NewLog(0)
	l.Append(raw(`1`))
	type res struct {
		evs  []Event
		done bool
		err  error
	}
	ch := make(chan res, 1)
	go func() {
		evs, _, done, err := l.Wait(context.Background(), 1)
		ch <- res{evs, done, err}
	}()
	// The waiter must be parked: nothing past cursor 1 yet.
	select {
	case r := <-ch:
		t.Fatalf("Wait returned early: %+v", r)
	case <-time.After(20 * time.Millisecond):
	}
	l.Append(raw(`2`))
	select {
	case r := <-ch:
		if r.err != nil || len(r.evs) != 1 || r.evs[0].Version != 2 {
			t.Fatalf("Wait = %+v", r)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Wait did not wake on Append")
	}
}

func TestWaitReturnsImmediatelyWhenBehind(t *testing.T) {
	l := NewLog(0)
	l.Append(raw(`1`))
	l.Append(raw(`2`))
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	evs, _, _, err := l.Wait(ctx, 0)
	if err != nil || len(evs) != 2 {
		t.Fatalf("Wait = %d events, err %v", len(evs), err)
	}
}

func TestWaitUnblocksOnClose(t *testing.T) {
	l := NewLog(0)
	ch := make(chan bool, 1)
	go func() {
		_, _, done, err := l.Wait(context.Background(), 0)
		ch <- done && err == nil
	}()
	time.Sleep(10 * time.Millisecond)
	l.Close()
	select {
	case ok := <-ch:
		if !ok {
			t.Fatal("Wait after Close: done=false or err")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Wait did not unblock on Close")
	}
	// Close is idempotent; Append after Close is a no-op.
	l.Close()
	if v := l.Append(raw(`x`)); v != 0 {
		t.Fatalf("Append after Close returned %d", v)
	}
	if _, _, done := l.After(0); !done {
		t.Fatal("After on closed log: done=false")
	}
}

func TestWaitHonorsContext(t *testing.T) {
	l := NewLog(0)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, _, _, err := l.Wait(ctx, 0)
	if err == nil {
		t.Fatal("Wait ignored context deadline")
	}
}

func TestAppendJSON(t *testing.T) {
	l := NewLog(0)
	v, err := l.AppendJSON(map[string]int{"k": 7})
	if err != nil || v != 1 {
		t.Fatalf("AppendJSON = %d, %v", v, err)
	}
	if _, err := l.AppendJSON(func() {}); err == nil {
		t.Fatal("AppendJSON accepted an unmarshalable value")
	}
	evs, _, _ := l.After(0)
	if len(evs) != 1 || string(evs[0].Data) != `{"k":7}` {
		t.Fatalf("events = %+v", evs)
	}
}

func TestHub(t *testing.T) {
	h := NewHub(8)
	if get(h, "a") != nil {
		t.Fatal("Get before Log returned a log")
	}
	la := h.Log("a")
	if la == nil || h.Log("a") != la {
		t.Fatal("Log not stable per key")
	}
	lb := h.Log("b")
	if lb == la {
		t.Fatal("distinct keys share a log")
	}
	la.Append(raw(`1`))
	if get(h, "a") != la || h.Len() != 2 {
		t.Fatalf("Get/Len mismatch: %d", h.Len())
	}
}

func TestConcurrentAppendAndWait(t *testing.T) {
	l := NewLog(64)
	const n = 50
	done := make(chan int, 1)
	go func() {
		var cursor uint64
		seen := 0
		for seen < n {
			evs, _, _, err := l.Wait(context.Background(), cursor)
			if err != nil {
				break
			}
			for _, ev := range evs {
				cursor = ev.Version
				seen++
			}
		}
		done <- seen
	}()
	for i := 0; i < n; i++ {
		l.Append(raw(`{}`))
	}
	select {
	case seen := <-done:
		if seen != n {
			t.Fatalf("reader saw %d/%d events", seen, n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reader never drained")
	}
}

// TestRingWrapsInOrder appends more than three times Retain events and,
// after every append, checks the cursors that matter against the
// versions the ring must hold: the retained tail in order and with the
// right payloads, the gapped flag on both sides of the eviction boundary,
// and Version.
func TestRingWrapsInOrder(t *testing.T) {
	const retain = 5
	l := NewLog(retain)
	for v := uint64(1); v <= 3*retain+2; v++ {
		l.Append(raw(fmt.Sprintf(`{"v":%d}`, v)))
		if got := version(l); got != v {
			t.Fatalf("Version = %d after %d appends", got, v)
		}
		oldest := uint64(1)
		if v > retain {
			oldest = v - retain + 1
		}
		for cursor := uint64(0); cursor <= v+1; cursor++ {
			evs, gapped, done := l.After(cursor)
			first := max(cursor+1, oldest)
			var want []uint64
			for w := first; w <= v; w++ {
				want = append(want, w)
			}
			if fmt.Sprint(versions(evs)) != fmt.Sprint(want) {
				t.Fatalf("after %d appends, After(%d) = %v, want %v", v, cursor, versions(evs), want)
			}
			for _, ev := range evs {
				if string(ev.Data) != fmt.Sprintf(`{"v":%d}`, ev.Version) {
					t.Fatalf("event %d carries %s", ev.Version, ev.Data)
				}
			}
			if wantGap := cursor+1 < oldest; gapped != wantGap || done {
				t.Fatalf("after %d appends, After(%d): gapped %v done %v, want gapped %v", v, cursor, gapped, done, wantGap)
			}
		}
	}
}

// TestHubRemoveClosesLog: Remove drops the key and closes its log, so a
// parked watcher sees done; the key's next Log starts afresh.
func TestHubRemoveClosesLog(t *testing.T) {
	h := NewHub(8)
	la := h.Log("a")
	la.Append(raw(`1`))
	parked := make(chan bool, 1)
	go func() {
		_, _, done, _ := la.Wait(context.Background(), version(la))
		parked <- done
	}()
	h.Remove("a")
	h.Remove("missing") // no log: a no-op
	select {
	case done := <-parked:
		if !done {
			t.Fatal("a watcher parked on a removed log did not see done")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a watcher parked on a removed log was never released")
	}
	if h.Len() != 0 || get(h, "a") != nil {
		t.Fatalf("removed log still held: Len %d", h.Len())
	}
	if lb := h.Log("a"); lb == la || version(lb) != 0 {
		t.Fatal("the key's next log is not a fresh one")
	}
}

// BenchmarkLogAppend measures one Append on a full DefaultRetain ring,
// the steady state of a long-running server's watch logs.
func BenchmarkLogAppend(b *testing.B) {
	l := NewLog(DefaultRetain)
	data := raw(`{"kind":"iter","iter":{"K":12,"Area":2786.63,"Gap":0.0084}}`)
	for i := 0; i < DefaultRetain; i++ {
		l.Append(data)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Append(data)
	}
}
