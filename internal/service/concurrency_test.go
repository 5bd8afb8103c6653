package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

// TestConcurrentSolvesAndSweeps drives a real HTTP server with concurrent
// solves and sweeps on two cached circuits: every request must succeed and every solve of one circuit must return the
// bit-identical result regardless of interleaving — the per-instance lock
// and the replica-per-request discipline observed from outside.
func TestConcurrentSolvesAndSweeps(t *testing.T) {
	s := New(Options{MaxConcurrentSolves: 4})
	ts := httptest.NewServer(s)
	defer ts.Close()

	post := func(path, body string) ([]byte, int, error) {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			return nil, 0, err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		return data, resp.StatusCode, err
	}

	key17 := registerC17(t, s, 17).Key
	key18 := registerC17(t, s, 18).Key

	const perKey = 4
	type outcome struct {
		res *core.Result
		err error
	}
	results := make([]outcome, 2*perKey)
	var wg sync.WaitGroup
	for i := 0; i < 2*perKey; i++ {
		key := key17
		if i >= perKey {
			key = key18
		}
		wg.Add(1)
		go func(slot int, key string) {
			defer wg.Done()
			body := fmt.Sprintf(`{"key":%q,"max_iterations":6}`, key)
			data, code, err := post("/solve", body)
			if err != nil {
				results[slot] = outcome{err: err}
				return
			}
			if code != http.StatusOK {
				results[slot] = outcome{err: fmt.Errorf("status %d: %s", code, data)}
				return
			}
			var sr solveResponse
			if err := json.Unmarshal(data, &sr); err != nil {
				results[slot] = outcome{err: err}
				return
			}
			results[slot] = outcome{res: sr.Result}
		}(i, key)
	}
	// Sweeps race the solves on both circuits.
	sweepErrs := make([]error, 2)
	for i, key := range []string{key17, key18} {
		wg.Add(1)
		go func(slot int, key string) {
			defer wg.Done()
			body := fmt.Sprintf(`{"key":%q,"delay_scale":[1,1.1],"max_iterations":4}`, key)
			data, code, err := post("/sweep", body)
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("status %d: %s", code, data)
			}
			sweepErrs[slot] = err
		}(i, key)
	}
	wg.Wait()

	for i, err := range sweepErrs {
		if err != nil {
			t.Fatalf("concurrent sweep %d: %v", i, err)
		}
	}
	for group := 0; group < 2; group++ {
		base := results[group*perKey]
		if base.err != nil {
			t.Fatalf("concurrent solve: %v", base.err)
		}
		for i := 1; i < perKey; i++ {
			o := results[group*perKey+i]
			if o.err != nil {
				t.Fatalf("concurrent solve: %v", o.err)
			}
			if !reflect.DeepEqual(base.res, o.res) {
				t.Fatalf("concurrent solves on one circuit diverged (group %d, request %d)", group, i)
			}
		}
	}
	st := decodeAs[Stats](t, do(t, s, "GET", "/stats", ""))
	if st.Solves != 2*perKey || st.Sweeps != 2 {
		t.Errorf("stats after the storm: solves %d sweeps %d, want %d and 2", st.Solves, st.Sweeps, 2*perKey)
	}
}
