package farm

import "sort"

// WorkerStats is one worker's row in the farm section of GET /stats.
type WorkerStats struct {
	ID   string `json:"id"`
	Name string `json:"name"`
	Live bool   `json:"live"`
	// JobsCompleted counts result streams that reached their done marker;
	// CellsSolved counts first-recorded cells of every kind — solves, sweep
	// cells, Monte-Carlo samples — and credits no duplicate from a re-run.
	JobsCompleted int64 `json:"jobs_completed"`
	CellsSolved   int64 `json:"cells_solved"`
}

// Stats is the farm section of the service's GET /stats payload.
type Stats struct {
	// Workers lists every worker ever registered (reaped ones included,
	// marked not live), ordered by registration.
	Workers     []WorkerStats `json:"workers"`
	LiveWorkers int           `json:"live_workers"`
	JobsQueued  int           `json:"jobs_queued"`
	JobsLeased  int           `json:"jobs_leased"`
	// Lifetime counters: completed jobs, jobs re-queued after a reap,
	// workers reaped, and runs (distributed solves, sweeps and Monte-Carlo
	// runs) by outcome.
	JobsCompleted int64 `json:"jobs_completed"`
	JobsRequeued  int64 `json:"jobs_requeued"`
	WorkersReaped int64 `json:"workers_reaped"`
	RunsCompleted int64 `json:"runs_completed"`
	RunsFailed    int64 `json:"runs_failed"`
	// Reconnects counts registrations under a worker name already on the
	// books — a fleet member coming back after a crash or coordinator
	// outage rather than a brand-new node.
	Reconnects int64 `json:"reconnects"`
}

// StatsSnapshot returns the coordinator's current counters.
func (c *Coordinator) StatsSnapshot() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{
		JobsQueued:    len(c.queue),
		JobsLeased:    len(c.leases),
		JobsCompleted: c.jobsCompleted,
		JobsRequeued:  c.jobsRequeued,
		WorkersReaped: c.workersReaped,
		RunsCompleted: c.runsCompleted,
		RunsFailed:    c.runsFailed,
		Reconnects:    c.reconnects,
	}
	for _, w := range c.workers {
		st.Workers = append(st.Workers, WorkerStats{
			ID: w.id, Name: w.name, Live: !w.dead,
			JobsCompleted: w.jobsCompleted,
			CellsSolved:   w.cellsSolved,
		})
		if !w.dead {
			st.LiveWorkers++
		}
	}
	// Registration order: ids are "w1", "w2", … so numeric length sorts
	// before lexicographic within equal lengths.
	sort.Slice(st.Workers, func(i, j int) bool {
		a, b := st.Workers[i].ID, st.Workers[j].ID
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		return a < b
	})
	return st
}
