// Package smoke is the HTTP client the end-to-end smoke checkers
// (scripts/servicecheck, farmcheck, storecheck, chaoscheck and
// variationcheck) share: JSON requests against a running ogwsd, the wait
// for it to come up, real ogws-worker processes and the wait for them to
// register. Each checker keeps its own scenario and oracle.
package smoke

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"time"

	"repro/internal/farm"
	"repro/internal/sweep"
)

// GetJSON decodes the 200 response of GET url into v; any other status
// is an error carrying the response body.
func GetJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	return decode(resp, "GET "+url, v)
}

// PostJSON POSTs body, marshaled as JSON (a json.RawMessage goes as is),
// and decodes the 200 response into v; any other status is an error
// carrying the response body.
func PostJSON(url string, body, v any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		return err
	}
	return decode(resp, "POST "+url, v)
}

func decode(resp *http.Response, what string, v any) error {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %d: %s", what, resp.StatusCode, data)
	}
	return json.Unmarshal(data, v)
}

// WaitHealthy polls base's GET /healthz until the server reports ok, or
// fails once deadline passes.
func WaitHealthy(base string, deadline time.Time) error {
	for {
		var health map[string]bool
		err := GetJSON(base+"/healthz", &health)
		if err == nil && health["ok"] {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not healthy by the deadline: %v", base, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// StartWorker launches one real ogws-worker process against the
// coordinator at base, with its logs forwarded to ours.
func StartWorker(bin, base, name string, extra ...string) (*exec.Cmd, error) {
	args := append([]string{"-coordinator", base, "-name", name}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	return cmd, cmd.Start()
}

// FarmStats reads the farm section of base's GET /stats; a server not in
// -coordinator mode has none, which is an error.
func FarmStats(base string) (*farm.Stats, error) {
	var st struct {
		Farm *farm.Stats `json:"farm"`
	}
	if err := GetJSON(base+"/stats", &st); err != nil {
		return nil, err
	}
	if st.Farm == nil {
		return nil, fmt.Errorf("server at %s is not in -coordinator mode (no farm stats)", base)
	}
	return st.Farm, nil
}

// WaitWorkers polls the farm section of base's GET /stats until at least
// n workers are live, or fails once deadline passes.
func WaitWorkers(base string, n int, deadline time.Time) error {
	for {
		st, err := FarmStats(base)
		if err != nil {
			return err
		}
		if st.LiveWorkers >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d live worker(s) by the deadline, want %d", st.LiveWorkers, n)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// StripTiming zeroes the per-cell wall-clock times, the only fields of a
// sweep result that differ between runs, so grids compare bit for bit.
func StripTiming(r *sweep.Result) *sweep.Result {
	for i := range r.Cells {
		r.Cells[i].SolveSec = 0
	}
	return r
}
