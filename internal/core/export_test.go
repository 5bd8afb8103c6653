package core

// SetHysteresis sets the solver's cutover hysteresis K for its following
// Runs, so the external test package can build the full-pass reference:
// K = 0 runs every LRS sweep on full passes, and a negative K never
// reverts. It exists only in test builds.
func (s *Solver) SetHysteresis(k int) { s.cutover = k }

// LRSMaxSweeps is the per-call sweep cap, for the external test package.
const LRSMaxSweeps = lrsMaxSweeps
