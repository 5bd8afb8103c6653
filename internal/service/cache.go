package service

import (
	"container/list"
	"sync"

	"repro/internal/bench"
	"repro/internal/farm/api"
)

// entry is one cached circuit: the shared instance, its derived bounds,
// and the named results solved against it. mu serializes every solve and
// sweep on this circuit — solves run on evaluator replicas so they could
// overlap safely, but serializing them keeps the per-circuit memory bound
// at one replica, makes warm-start chains (solve → save → warm solve)
// deterministic per circuit, and matches the sweep engine's
// one-instance/many-cells discipline. Distinct circuits never contend.
// The saved-results map has its own lock (resMu, never held together
// with mu) so read-only endpoints stay responsive while a solve or sweep
// holds mu for its whole — possibly minutes-long — duration.
type entry struct {
	key    string
	name   string
	inst   *bench.Instance
	bounds bench.Bounds
	// farmSpec is the circuit's wire form for farm dispatch: the spec a
	// worker materializes its own bit-identical replica from, captured at
	// registration so the coordinator stays circuit-stateless.
	farmSpec api.CircuitSpec

	mu sync.Mutex // serializes solves/sweeps on this circuit

	resMu   sync.Mutex // guards results and order only
	results map[string]*storedResult
	order   []string // insertion order, for bounded eviction
}

// getResult returns the named saved result, or nil.
func (e *entry) getResult(name string) *storedResult {
	e.resMu.Lock()
	defer e.resMu.Unlock()
	return e.results[name]
}

// resultNames lists the saved result names in insertion order.
func (e *entry) resultNames() []string {
	e.resMu.Lock()
	defer e.resMu.Unlock()
	return append([]string(nil), e.order...)
}

// saveResult stores a named result, evicting the oldest name once the
// per-instance budget maxSavedResults is exceeded. Overwriting a name
// refreshes its eviction slot: "oldest" means least recently saved, so a
// hot, repeatedly-overwritten warm-start seed outlives younger names
// saved once and forgotten.
func (e *entry) saveResult(name string, r *storedResult) {
	e.resMu.Lock()
	defer e.resMu.Unlock()
	if _, exists := e.results[name]; exists {
		for i, n := range e.order {
			if n == name {
				e.order = append(e.order[:i], e.order[i+1:]...)
				break
			}
		}
	} else {
		for len(e.order) >= maxSavedResults {
			delete(e.results, e.order[0])
			e.order = e.order[1:]
		}
	}
	e.order = append(e.order, name)
	e.results[name] = r
}

// buildCall collapses concurrent registrations of the same key onto one
// instance construction (the front end costs seconds on large circuits);
// late arrivals block on done and share the outcome.
type buildCall struct {
	done chan struct{}
	e    *entry
	err  error
}

// instanceCache is the LRU-bounded instance cache keyed by netlist/spec
// hash. Eviction drops the cache's reference only: requests already
// holding an entry keep using it, and the memory is reclaimed when they
// finish. Each eviction is reported to evicted, outside the cache lock,
// so state keyed by the circuit (its watch log) goes with it.
type instanceCache struct {
	mu        sync.Mutex
	max       int
	lru       *list.List // of *entry, front = most recently used
	byKey     map[string]*list.Element
	building  map[string]*buildCall
	evicted   func(key string)
	hits      int64
	misses    int64
	evictions int64
}

func newInstanceCache(max int, evicted func(key string)) *instanceCache {
	return &instanceCache{
		max:      max,
		lru:      list.New(),
		byKey:    map[string]*list.Element{},
		building: map[string]*buildCall{},
		evicted:  evicted,
	}
}

// get returns the cached entry for key, refreshing its recency, or nil.
func (c *instanceCache) get(key string) *entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return nil
	}
	c.lru.MoveToFront(el)
	return el.Value.(*entry)
}

// getOrBuild returns the entry for spec's key, building the instance
// with spec.Build on a miss. Concurrent calls for one key run the build
// once and share the result; the cache lock is never held across a
// build. A grid mesh carries its own calibration bounds; every other
// circuit is calibrated by bench.DeriveBounds.
func (c *instanceCache) getOrBuild(spec api.CircuitSpec) (e *entry, hit bool, err error) {
	key := spec.Key
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		c.mu.Unlock()
		return el.Value.(*entry), true, nil
	}
	if bc, ok := c.building[key]; ok {
		c.mu.Unlock()
		<-bc.done
		if bc.err != nil {
			// The build this call joined failed: nothing was cached, so
			// nothing was hit — the counter measures amortization only.
			return nil, false, bc.err
		}
		c.mu.Lock()
		c.hits++
		c.mu.Unlock()
		return bc.e, true, nil
	}
	bc := &buildCall{done: make(chan struct{})}
	c.building[key] = bc
	c.misses++
	c.mu.Unlock()

	name, inst, bounds, err := spec.Build()
	c.mu.Lock()
	delete(c.building, key)
	if err != nil {
		c.mu.Unlock()
		bc.err = err
		close(bc.done)
		return nil, false, err
	}
	if bounds == nil {
		b := bench.DeriveBounds(inst)
		bounds = &b
	}
	bc.e = &entry{
		key:      key,
		name:     name,
		inst:     inst,
		bounds:   *bounds,
		farmSpec: spec,
		results:  map[string]*storedResult{},
	}
	c.byKey[key] = c.lru.PushFront(bc.e)
	var evicted []string
	for c.lru.Len() > c.max {
		oldest := c.lru.Remove(c.lru.Back()).(*entry).key
		delete(c.byKey, oldest)
		evicted = append(evicted, oldest)
		c.evictions++
	}
	c.mu.Unlock()
	close(bc.done)
	for _, k := range evicted {
		c.evicted(k)
	}
	return bc.e, false, nil
}

// snapshot returns the cached entries, most recently used first, plus the
// hit/miss/eviction counters.
func (c *instanceCache) snapshot() (entries []*entry, hits, misses, evictions int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.lru.Front(); el != nil; el = el.Next() {
		entries = append(entries, el.Value.(*entry))
	}
	return entries, c.hits, c.misses, c.evictions
}
