package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/store"
	"repro/internal/variation"
)

func TestMonteCarloErrors(t *testing.T) {
	s := New(Options{})
	key := registerC17(t, s, 17).Key
	cases := []struct {
		name, body string
		code       int
		want       string
	}{
		{"invalid json", `{`, http.StatusBadRequest, "bad montecarlo request"},
		{"unknown field", `{"key":"x","smples":3}`, http.StatusBadRequest, "unknown field"},
		{"unknown key", `{"key":"nope","samples":3}`, http.StatusNotFound, "no cached circuit"},
		{"zero samples", `{"key":"` + key + `"}`, http.StatusBadRequest, "samples must be positive"},
		{"negative sigma", `{"key":"` + key + `","samples":3,"sigmas":{"r":-0.1}}`, http.StatusBadRequest, "sigma"},
		{"nan sigma", `{"key":"` + key + `","samples":3,"sigmas":{"c":NaN}}`, http.StatusBadRequest, "bad montecarlo request"},
		// The solo schedule is no longer a request field.
		{"retired solo", `{"key":"` + key + `","samples":3,"solo":true}`, http.StatusBadRequest, "unknown field"},
		// So is the per-solve width: every sample solves serially.
		{"retired workers", `{"key":"` + key + `","samples":3,"workers":2}`, http.StatusBadRequest, "unknown field"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := do(t, s, "POST", "/montecarlo", c.body)
			if w.Code != c.code {
				t.Fatalf("status %d, want %d (%s)", w.Code, c.code, w.Body.String())
			}
			if e := decodeAs[errorResponse](t, w); !strings.Contains(e.Error, c.want) {
				t.Errorf("error %q does not mention %q", e.Error, c.want)
			}
		})
	}
}

// TestMonteCarloEndpoint pins the /montecarlo contract: a seeded run
// returns the full sample set with distributions and yield; the same
// request repeated answers byte-identically from the store without
// solving (dedup), and no_dedup forces a re-run that still produces the
// identical result.
func TestMonteCarloEndpoint(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := New(Options{Store: st})
	key := registerC17(t, s, 17).Key

	body := `{"key":"` + key + `","samples":4,"seed":7,` +
		`"sigmas":{"r":0.05,"c":0.05,"threshold":0.08},"max_iterations":8}`
	w := do(t, s, "POST", "/montecarlo", body)
	if w.Code != http.StatusOK {
		t.Fatalf("montecarlo: %d %s", w.Code, w.Body.String())
	}
	first := decodeAs[montecarloResponse](t, w)
	if first.Dedup {
		t.Error("first run reported dedup")
	}
	if first.Result == nil || len(first.Result.Samples) != 4 {
		t.Fatalf("bad result: %+v", first.Result)
	}
	if first.Result.Yield < 0 || first.Result.Yield > 1 {
		t.Errorf("yield %v outside [0,1]", first.Result.Yield)
	}
	for i, sm := range first.Result.Samples {
		if sm.Index != i || sm.Result == nil {
			t.Fatalf("sample %d malformed: %+v", i, sm)
		}
	}
	if first.Result.Delay.Mean <= 0 || first.Result.Delay.Max < first.Result.Delay.Min {
		t.Errorf("degenerate delay distribution: %+v", first.Result.Delay)
	}

	// Repeat: answered from the store, result bytes identical.
	w2 := do(t, s, "POST", "/montecarlo", body)
	if w2.Code != http.StatusOK {
		t.Fatalf("montecarlo repeat: %d %s", w2.Code, w2.Body.String())
	}
	second := decodeAs[montecarloResponse](t, w2)
	if !second.Dedup {
		t.Error("identical repeat did not dedup")
	}
	a, _ := json.Marshal(first.Result)
	b, _ := json.Marshal(second.Result)
	if !bytes.Equal(a, b) {
		t.Error("dedup result diverged from the original run")
	}

	// Forced re-run: same seed, same bytes — the determinism contract
	// through the full HTTP surface.
	w3 := do(t, s, "POST", "/montecarlo", strings.Replace(body, `{"key"`, `{"no_dedup":true,"key"`, 1))
	third := decodeAs[montecarloResponse](t, w3)
	if third.Dedup {
		t.Error("no_dedup run reported dedup")
	}
	c, _ := json.Marshal(third.Result)
	if !bytes.Equal(a, c) {
		t.Error("re-run with the same seed diverged from the original")
	}

	// A different seed is a different run (and a different store key).
	w4 := do(t, s, "POST", "/montecarlo", strings.Replace(body, `"seed":7`, `"seed":8`, 1))
	fourth := decodeAs[montecarloResponse](t, w4)
	if fourth.Dedup {
		t.Error("different seed hit the dedup store")
	}

	stats := decodeAs[Stats](t, do(t, s, "GET", "/stats", ""))
	if stats.MonteCarlos != 3 || stats.MCSamples != 12 {
		t.Errorf("stats counted %d runs / %d samples, want 3 / 12", stats.MonteCarlos, stats.MCSamples)
	}
	if stats.DedupHits != 1 {
		t.Errorf("stats counted %d dedup hits, want 1", stats.DedupHits)
	}
}

// TestCornersEndpoint pins the corners mode of /sweep: the standard
// five-corner enumeration with a nominal solve, per-corner results, and
// dedup on repeat.
func TestCornersEndpoint(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := New(Options{Store: st})
	key := registerC17(t, s, 17).Key

	body := `{"key":"` + key + `","corners":true,"max_iterations":8}`
	w := do(t, s, "POST", "/sweep", body)
	if w.Code != http.StatusOK {
		t.Fatalf("corners: %d %s", w.Code, w.Body.String())
	}
	first := decodeAs[cornersResponse](t, w)
	if first.Report == nil || first.Report.Nominal == nil {
		t.Fatalf("missing report: %+v", first)
	}
	std := variation.StandardCorners()
	if len(first.Report.Cells) != len(std) {
		t.Fatalf("%d corner cells, want %d", len(first.Report.Cells), len(std))
	}
	for i, c := range first.Report.Cells {
		if c.Corner.Name != std[i].Name || c.Result == nil {
			t.Errorf("cell %d: corner %q result %v", i, c.Corner.Name, c.Result != nil)
		}
	}

	// Repeat dedups; report bytes identical.
	second := decodeAs[cornersResponse](t, do(t, s, "POST", "/sweep", body))
	if !second.Dedup {
		t.Error("identical corners repeat did not dedup")
	}
	a, _ := json.Marshal(first.Report)
	b, _ := json.Marshal(second.Report)
	if !bytes.Equal(a, b) {
		t.Error("dedup corners report diverged from the original run")
	}

	// Streamed form: one NDJSON line per corner, then the summary — cells
	// bit-identical to the buffered run.
	ws := do(t, s, "POST", "/sweep", strings.Replace(body, `"corners"`, `"stream":true,"corners"`, 1))
	if ws.Code != http.StatusOK {
		t.Fatalf("streamed corners: %d %s", ws.Code, ws.Body.String())
	}
	lines := strings.Split(strings.TrimSpace(ws.Body.String()), "\n")
	if len(lines) != len(std)+1 {
		t.Fatalf("%d stream lines, want %d corners + 1 summary", len(lines), len(std))
	}
	for i, line := range lines[:len(std)] {
		var cell variation.CornerCell
		if err := json.Unmarshal([]byte(line), &cell); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		want, _ := json.Marshal(first.Report.Cells[i])
		got, _ := json.Marshal(cell)
		if !bytes.Equal(want, got) {
			t.Errorf("streamed cell %d diverged from the buffered run", i)
		}
	}
	var sum cornersSummary
	if err := json.Unmarshal([]byte(lines[len(std)]), &sum); err != nil {
		t.Fatal(err)
	}
	if !sum.Done || sum.Corners != len(std) {
		t.Errorf("bad summary: %+v", sum)
	}

	stats := decodeAs[Stats](t, do(t, s, "GET", "/stats", ""))
	if stats.CornerSweeps != 2 || stats.CornerCells != int64(2*len(std)) {
		t.Errorf("stats counted %d corner sweeps / %d cells, want 2 / %d",
			stats.CornerSweeps, stats.CornerCells, 2*len(std))
	}
}

// TestMonteCarloWatchEvents pins the watch-stream shape of a Monte-Carlo
// run: mc_start, one sample event per sample in index order, mc_done
// with the yield.
func TestMonteCarloWatchEvents(t *testing.T) {
	s := New(Options{})
	key := registerC17(t, s, 17).Key
	body := `{"key":"` + key + `","samples":3,"seed":5,"sigmas":{"r":0.03},"max_iterations":6}`
	if w := do(t, s, "POST", "/montecarlo", body); w.Code != http.StatusOK {
		t.Fatalf("montecarlo: %d %s", w.Code, w.Body.String())
	}
	wr := decodeAs[watchResponse](t, do(t, s, "GET", "/watch?key="+key, ""))
	var kinds []string
	var samples []int
	for _, ev := range wr.Events {
		var pe progressEvent
		if err := json.Unmarshal(ev.Data, &pe); err != nil {
			t.Fatal(err)
		}
		kinds = append(kinds, pe.Kind)
		if pe.Kind == "sample" {
			samples = append(samples, pe.Sample)
		}
		if pe.Kind == "mc_done" && (pe.Yield < 0 || pe.Yield > 1) {
			t.Errorf("mc_done yield %v outside [0,1]", pe.Yield)
		}
	}
	want := []string{"mc_start", "sample", "sample", "sample", "mc_done"}
	if strings.Join(kinds, ",") != strings.Join(want, ",") {
		t.Errorf("event kinds %v, want %v", kinds, want)
	}
	for i, idx := range samples {
		if idx != i {
			t.Errorf("sample event %d carries index %d", i, idx)
		}
	}
}
