package rc

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/coupling"
)

// byteFeed deals out fuzz bytes one at a time, cycling so short inputs
// still drive full structures deterministically.
type byteFeed struct {
	data []byte
	pos  int
}

func (f *byteFeed) next() int {
	if len(f.data) == 0 {
		return 0
	}
	b := f.data[f.pos%len(f.data)]
	f.pos++
	return int(b)
}

// dagFromBytes interprets fuzz input as a circuit DAG: a driver rank, then
// one node per byte triple (kind, fan-in selector, output/coupling bits).
// BuildLoose admits every acyclic shape the bytes describe — dangling
// components, a feeder-less sink, sink-feeder-only nets — exactly the
// degenerate structures the Builder's validated path can never produce.
// Returns nil when the bytes describe nothing buildable.
func dagFromBytes(t *testing.T, data []byte) (*circuit.Graph, *coupling.Set) {
	t.Helper()
	f := &byteFeed{data: data}
	b := circuit.NewBuilder()
	var nodes []int // builder ids usable as fan-in sources
	nDrivers := 1 + f.next()%3
	for i := 0; i < nDrivers; i++ {
		nodes = append(nodes, b.AddDriver("d", 20+float64(f.next()%200)))
	}
	var wires []int
	nComps := len(data) % 40
	markedOutput := false
	for c := 0; c < nComps; c++ {
		kind := f.next()
		lo := 0.1 + float64(f.next()%10)/20
		hi := lo + 0.5 + float64(f.next()%20)
		if kind%2 == 0 {
			w := b.AddWire("w",
				1+float64(f.next()%30), 0.2+float64(f.next()%20)/10,
				float64(f.next()%10)/10, 10+float64(f.next()%90), 1, lo, hi)
			b.Connect(nodes[f.next()%len(nodes)], w)
			nodes = append(nodes, w)
			wires = append(wires, w)
			if f.next()%4 == 0 {
				b.MarkOutput(w, float64(f.next()%40))
				markedOutput = true
			}
		} else {
			g := b.AddGate("g",
				5+float64(f.next()%25), 0.1+float64(f.next()%15)/10,
				1+float64(f.next()%7), lo, hi)
			fanin := 1 + f.next()%3
			seen := map[int]bool{}
			for k := 0; k < fanin; k++ {
				src := nodes[f.next()%len(nodes)]
				if seen[src] {
					continue
				}
				seen[src] = true
				b.Connect(src, g)
			}
			nodes = append(nodes, g)
			if f.next()%5 == 0 {
				b.MarkOutput(g, float64(f.next()%40))
				markedOutput = true
			}
		}
	}
	_ = markedOutput // BuildLoose tolerates zero outputs — that IS a target shape
	g, id, err := b.BuildLoose()
	if err != nil {
		return nil, nil // bytes described nothing buildable (e.g. duplicate output)
	}
	var pairs []coupling.Pair
	if len(wires) >= 2 && f.next()%2 == 0 {
		nPairs := 1 + f.next()%3
		have := map[[2]int]bool{}
		for k := 0; k < nPairs; k++ {
			wi := id[wires[f.next()%len(wires)]]
			wj := id[wires[f.next()%len(wires)]]
			if wi == wj {
				continue
			}
			if wi > wj {
				wi, wj = wj, wi
			}
			if have[[2]int{wi, wj}] {
				continue
			}
			have[[2]int{wi, wj}] = true
			pairs = append(pairs, coupling.Pair{
				I: wi, J: wj,
				CTilde: 0.5 + float64(f.next()%10),
				Dist:   1 + float64(f.next()%5),
				Weight: float64(f.next()%4) / 2,
			})
		}
	}
	cs, err := coupling.NewSet(pairs)
	if err != nil {
		t.Fatalf("generated coupling set invalid: %v", err)
	}
	return g, cs
}

// FuzzIncremental is the dirty-cone engine's adversary: for every DAG the
// bytes describe it replays random size-mutation batches on two
// evaluators — one driven through the incremental entry points and one
// full-pass oracle — and demands exact bitwise equality after every
// batch. Each batch picks RecomputeLoadsIncremental or RecomputeIncremental
// from the bytes: a loads-only batch must match the oracle on every loads
// array and leave D and A exactly as they were, and a full batch must match
// on every array. The arrival pass must run exactly when a loads refresh
// did work since the last one, which pins the staleness flag from both
// sides. Batches of size zero exercise the empty-dirty-set path (after a
// loads-only batch, that path must still refresh the arrivals); repeated
// picks of the same node exercise idempotent marking.
func FuzzIncremental(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte("incremental cones must match the full pass bit for bit"))
	f.Add([]byte{2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0})
	f.Add([]byte{250, 1, 250, 2, 250, 3, 250, 4, 250, 5, 250, 6, 250, 7})
	// Three batches: a loads-only batch that moves one size, then two
	// empty RecomputeIncremental batches. The first must refresh the
	// arrivals the loads-only batch left stale; the second must run none.
	f.Add([]byte{2, 0, 1, 2, 30, 1, 0, 1, 0, 6, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, cs := dagFromBytes(t, data)
		if g == nil {
			return
		}
		var sizable []int
		for i := 0; i < g.NumNodes(); i++ {
			if g.Comp(i).Kind.Sizable() {
				sizable = append(sizable, i)
			}
		}
		if len(sizable) == 0 {
			return
		}
		newEv := func() *Evaluator {
			ev, err := NewEvaluator(g, cs)
			if err != nil {
				t.Fatal(err)
			}
			ev.SetAllSizes(0.3 + float64(len(data)%30)/10)
			return ev
		}
		inc, ref := newEv(), newEv()
		inc.Recompute()
		ref.Recompute()
		lambda := make([]float64, g.NumNodes())
		for i := range lambda {
			lambda[i] = float64((i*5+len(data))%9) / 4
		}
		rupInc := make([]float64, g.NumNodes())
		rupRef := make([]float64, g.NumNodes())
		inc.UpstreamResistance(lambda, rupInc)

		var oldD, oldA []float64
		stale := false // a loads refresh did work since the last arrival pass
		feed := &byteFeed{data: data}
		batches := 1 + feed.next()%4
		for batch := 0; batch < batches; batch++ {
			loadsOnly := feed.next()%2 == 0
			nMut := feed.next() % 6 // 0 → empty dirty set
			for m := 0; m < nMut; m++ {
				i := sizable[feed.next()%len(sizable)]
				c := g.Comp(i)
				v := c.Lo + float64(feed.next()%32)/31*(c.Hi-c.Lo)
				if _, err := inc.SetSize(i, v); err != nil {
					t.Fatal(err)
				}
				ref.X[i] = inc.X[i] // oracle runs full passes, no marking needed
			}
			oldD = append(oldD[:0], inc.D...)
			oldA = append(oldA[:0], inc.A...)
			s0 := inc.Stats()
			if loadsOnly {
				inc.RecomputeLoadsIncremental()
			} else {
				inc.RecomputeIncremental()
			}
			d := inc.Stats().Sub(s0)
			if d.ElectricalNodes > 0 {
				stale = true
			}
			want := int64(0)
			if !loadsOnly && stale {
				want, stale = int64(g.NumNodes()-2), false
			}
			if d.ArrivalNodes != want {
				t.Fatalf("batch %d (loads only %v): arrival pass ran %d bodies, want %d",
					batch, loadsOnly, d.ArrivalNodes, want)
			}
			ref.Recompute()
			for i := 0; i < g.NumNodes(); i++ {
				if inc.B[i] != ref.B[i] || inc.C[i] != ref.C[i] || inc.CPr[i] != ref.CPr[i] ||
					inc.Cap[i] != ref.Cap[i] || inc.RPs[i] != ref.RPs[i] {
					t.Fatalf("batch %d node %d: incremental loads (B=%.17g C=%.17g C′=%.17g) != full (B=%.17g C=%.17g C′=%.17g)",
						batch, i, inc.B[i], inc.C[i], inc.CPr[i], ref.B[i], ref.C[i], ref.CPr[i])
				}
				if inc.CNbr != nil && inc.CNbr[i] != ref.CNbr[i] {
					t.Fatalf("batch %d node %d: CNbr %.17g != %.17g", batch, i, inc.CNbr[i], ref.CNbr[i])
				}
				wantD, wantA := ref.D[i], ref.A[i]
				if loadsOnly {
					wantD, wantA = oldD[i], oldA[i]
				}
				if inc.D[i] != wantD || inc.A[i] != wantA {
					t.Fatalf("batch %d (loads only %v) node %d: D=%.17g A=%.17g, want D=%.17g A=%.17g",
						batch, loadsOnly, i, inc.D[i], inc.A[i], wantD, wantA)
				}
			}
			inc.UpstreamResistanceIncremental(lambda, rupInc)
			ref.UpstreamResistance(lambda, rupRef)
			for i := range rupRef {
				if rupInc[i] != rupRef[i] {
					t.Fatalf("batch %d node %d: incremental R %.17g != full R %.17g",
						batch, i, rupInc[i], rupRef[i])
				}
			}
		}
	})
}
