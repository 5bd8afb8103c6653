// Package delta is a version-cursored progress log: the streaming layer
// that lets a client watch a 200-iteration Lagrangian ascent converge
// live instead of staring at a silent connection.
//
// A Log is an append-only sequence of JSON events, each stamped with a
// monotonically increasing version (from 1). Readers hold a cursor — the
// highest version they have seen — and ask for everything After it;
// Wait parks until the log grows past the cursor, the log closes, or the
// context ends, using the same close-and-replace wake-channel idiom as
// the farm coordinator. Only the most recent Retain events are kept: a
// slow consumer whose cursor has fallen off the ring is told so
// explicitly (gapped) rather than silently fed a hole, and can resync
// from the oldest retained event.
//
// A Hub multiplexes Logs by key (one per circuit in the service), so
// GET /watch?key=… attaches to the right stream without the service
// tracking subscribers itself.
package delta

import (
	"context"
	"encoding/json"
	"sync"
)

// DefaultRetain is the per-log ring size when Options.Retain is 0: deep
// enough to hold a full default solve (MaxIterations 1000) of iteration
// events plus markers.
const DefaultRetain = 2048

// Event is one versioned entry in a Log.
type Event struct {
	Version uint64          `json:"v"`
	Data    json.RawMessage `json:"data"`
}

// Log is a bounded, version-cursored event log. Safe for concurrent use;
// create with NewLog.
type Log struct {
	mu     sync.Mutex
	retain int
	// ring holds the retained events, a circular buffer once full: the
	// oldest sits at ring[head] and the rest follow it in version order,
	// wrapping at len(ring) ≤ retain. Until the ring fills, head is 0. A
	// full ring overwrites its oldest slot, so an Append costs O(1).
	ring   []Event
	head   int
	next   uint64 // version the next Append gets
	wake   chan struct{}
	closed bool
}

// NewLog creates a Log retaining the most recent retain events (0 selects
// DefaultRetain).
func NewLog(retain int) *Log {
	if retain <= 0 {
		retain = DefaultRetain
	}
	return &Log{retain: retain, next: 1, wake: make(chan struct{})}
}

// Append adds data as the next event and returns its version. Appending
// to a closed log is a no-op returning the last assigned version.
func (l *Log) Append(data json.RawMessage) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return l.next - 1
	}
	ev := Event{Version: l.next, Data: append(json.RawMessage(nil), data...)}
	l.next++
	if len(l.ring) < l.retain {
		l.ring = append(l.ring, ev)
	} else {
		l.ring[l.head] = ev // evict the oldest
		l.head = (l.head + 1) % len(l.ring)
	}
	close(l.wake)
	l.wake = make(chan struct{})
	return ev.Version
}

// AppendJSON marshals v and appends it, returning the version (0 and an
// error if v does not marshal).
func (l *Log) AppendJSON(v any) (uint64, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return 0, err
	}
	return l.Append(data), nil
}

// After returns every retained event with Version > cursor, in order.
// gapped reports that events between cursor and the first returned one
// were evicted (the caller missed some and should treat the stream as
// resynced, not contiguous). done reports the log is closed — once the
// returned events are consumed there will never be more.
func (l *Log) After(cursor uint64) (events []Event, gapped bool, done bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := uint64(len(l.ring))
	oldest := l.next - n // version of ring[head]; == next when empty
	gapped = cursor+1 < oldest
	skip := uint64(0) // retained events at or below the cursor
	if cursor >= oldest {
		skip = min(cursor-oldest+1, n)
	}
	if skip < n {
		events = make([]Event, 0, n-skip)
		for i := skip; i < n; i++ {
			events = append(events, l.ring[(uint64(l.head)+i)%n])
		}
	}
	return events, gapped, l.closed
}

// Wait blocks until the log holds events past cursor, the log is closed,
// or ctx ends; it then returns as After does (with ctx.Err() if the
// context ended first).
func (l *Log) Wait(ctx context.Context, cursor uint64) (events []Event, gapped bool, done bool, err error) {
	for {
		l.mu.Lock()
		wake := l.wake
		closed := l.closed
		l.mu.Unlock()
		events, gapped, done = l.After(cursor)
		if len(events) > 0 || closed {
			return events, gapped, done, nil
		}
		select {
		case <-wake:
		case <-ctx.Done():
			return nil, false, false, ctx.Err()
		}
	}
}

// Close marks the log complete and wakes every waiter. Further Appends
// are no-ops; readers drain the retained tail and see done.
func (l *Log) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	close(l.wake)
	l.wake = make(chan struct{})
}

// Hub multiplexes Logs by string key. Safe for concurrent use.
type Hub struct {
	mu     sync.Mutex
	retain int
	logs   map[string]*Log
}

// NewHub creates a Hub whose logs retain the most recent retain events
// each (0 selects DefaultRetain).
func NewHub(retain int) *Hub {
	return &Hub{retain: retain, logs: map[string]*Log{}}
}

// Log returns the log for key, creating it on first use.
func (h *Hub) Log(key string) *Log {
	h.mu.Lock()
	defer h.mu.Unlock()
	l, ok := h.logs[key]
	if !ok {
		l = NewLog(h.retain)
		h.logs[key] = l
	}
	return l
}

// Remove drops the log for key and closes it, so a watcher parked on it
// sees done instead of waiting for events that will never come. A later
// Log(key) starts a fresh log at version 1.
func (h *Hub) Remove(key string) {
	h.mu.Lock()
	l := h.logs[key]
	delete(h.logs, key)
	h.mu.Unlock()
	if l != nil {
		l.Close()
	}
}

// Len returns the number of keyed logs.
func (h *Hub) Len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.logs)
}
