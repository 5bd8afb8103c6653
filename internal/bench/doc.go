// Package bench is the experiment substrate: a calibrated synthetic
// generator for ISCAS85-class circuits (the paper's benchmarks are not
// redistributable and the environment is offline; see DESIGN.md §4), the
// two-stage flow pipeline (wire ordering + LR sizing), and harnesses that
// regenerate Table 1 and Figure 10.
//
// The central artifact is the Instance: a netlist run through the full
// deterministic front end (logic simulation, elaboration, channel
// formation, stage-1 wire ordering, coupling extraction, evaluator setup)
// and ready for any number of solves. Building one is the expensive part
// of a sizing request, so the reuse hooks exist to pay it once:
// NetlistKey/SpecKey hash every input that shapes an instance (netlist
// bytes or spec, geometry seed, the PipelineOptions fingerprint) into a
// cache key, and Instance.Replica hands each solve a fresh evaluator over
// the shared read-only graph and coupling set — the discipline both the
// sweep engine and the sizing service follow. DeriveBounds self-calibrates
// the standard experiment bounds from the instance's Init and Floor
// measurements.
//
// RunRow/RunTable1Parallel and the Grid mesh generator drive the
// committed benchmarks; everything is deterministic in (spec, seed,
// options), which is what makes the golden fixtures and the instance
// cache sound.
package bench
