// Perfbench measures govpic end to end and layer by layer. It builds
// each workload from a seed, runs it through the public core, deck and
// valid entry points in one process (GOMAXPROCS = nproc, ranks × workers
// ≤ nproc), checks the outputs, and prints every metric by name with
// its unit. Run it from the repository root:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is the result
// {"correct", "attempted", "failed", "metrics"}; the line before it is
// the record: the host fingerprint (CPU model, nproc, GOMAXPROCS, Go
// version, resolved push kernel, ranks, workers per rank, seed,
// particle count, step samples), the judged values and the share of
// the host's CPU time the hypervisor stole during the run. Results whose
// fingerprints differ are not comparable, and time-based metrics slow
// down with steal.
//
// # Workloads
//
//   - uniform: Thermal(32,32,32), ppc 32, 1 rank, n0 0.2, uth 0.05,
//     1,048,576 electrons sorted every 20 steps. The paper's inner-loop
//     workload: push is most of the step, on sorted data, and the
//     domain layer does nothing.
//   - tiles-2r: Thermal(32,16,16), ppc 8, 2 in-process ranks with
//     overlap on, Marder cleaning every 8 steps, 1 worker per rank,
//     65,536 electrons. The decomposed step: the domain and mp layers
//     and the unattributed residual show here.
//   - tnsa: TNSA(DefaultTNSA(5)) at ppc 256 (about 23k particles of
//     three species, a laser, absorbing walls), run to the
//     tnsa-ion-acceleration case's 2200 steps and judged by its checks.
//     Time to a solution of stated accuracy; field work and per-step
//     fixed costs (pool dispatch, laser injection, Mur walls, probe
//     observables) weigh most here.
//
// There is no unsorted workload: an unsorted hot plasma (voxel runs of
// length 1, 23% movers) made the gather misses and move_p dominate, but
// its wall times swung with the memory traffic of other tenants of the
// host more than any bound allows.
//
// --seconds sets the run length through a fixed count of work: thermal
// workloads time a step count calibrated to about --seconds on a
// 2-vCPU Xeon after an untimed warm-up, and tnsa solves once per 3 s.
// The count does not depend on the speed of the run, so both sides of
// an A/B comparison do the same work.
//
// # End-to-end metrics (untraced runs)
//
//   - mpart_per_s: particle pushes per second of step time, the median
//     over 10 equal stretches of the timed steps.
//   - gflop_per_s: counted flops (Simulation.Flops) per second, taken
//     the same way.
//   - step_s.p50, step_s.p90: per-step wall time; the record gives the
//     sample count.
//   - time_to_solution_s: deck build to the correctness verdict (the
//     median over solutions on tnsa).
//   - setup_s: deck build plus core.New, the median of repetitions
//     lasting about 2 s.
//   - restart_s: Checkpoint of the end state to memory plus Restore
//     into a second simulation, the median of rounds lasting about 2 s.
//   - rss_peak_mb: the process's VmHWM in MB.
//
// # Correctness gate
//
// Every check is one attempted operation; every failed check one failed
// operation. Thermal workloads keep their particle count (all walls are
// periodic), finite energy, div-B error ≤ 1e-7 and |energy drift| under
// a bound fixed for their run length. tnsa passes every check of its
// validation case. Every workload's state CRCs after restore equal the
// checkpointed ones. CRCs are compared, never pinned, since the seed is
// an argument.
//
// # Per-layer metrics (traced runs)
//
// A traced run records spans (name, start, end, parent, run id) around
// deck build, core.New, each Step, Energy, Checkpoint, Restore and each
// probe call, and between steps reads the deltas of each rank's
// perf.Breakdown, the Kernel counters, SortPasses and CommTraffic. It
// also runs the same steps untraced first (on tnsa: compares with the
// untraced solutions), which gives trace.overhead_frac. Single-layer
// replays run single-threaded on a copy restored from the end-state
// checkpoint. The trace is written to .bench_build/traces. Each layer,
// the end-to-end metric it should move, and where:
//
//	layer          metrics                                   moves                    on                    flat on
//	push           push.s_per_step, ns_per_particle_1t,      mpart_per_s, step_s.p50  uniform               tiles-2r (mostly)
//	               workers_busy, run_len, mover_frac,
//	               bytes_per_particle, flops_per_particle
//	sort           sort.s_per_sort, count_s, merge_s,        step_s.p90, mpart_per_s  uniform               —
//	               scatter_s, ns_per_particle_1t
//	field/interp/  field.s_per_step, advance_b/e_ns_per_cell, time_to_solution_s,     tnsa, tiles-2r        uniform
//	accum          marder_ms, interp.load_ns_per_cell,       step_s.p50
//	               accum.unload_ns_per_cell
//	domain/mp      domain.s_per_step, wait_s_per_step,       step_s.p50, step_s.p90   tiles-2r              uniform, tnsa
//	               overlap_s_per_step, bytes_per_step,
//	               msgs_per_step, ghost_exchange_us
//	core           core.unattributed_frac,                   step_s.p50; restart_s    tiles-2r; uniform     —
//	               imbalance_particles, checkpoint_mb_s,
//	               restore_mb_s
//	diag/valid     diag.energy_ms, valid.observe_ms          time_to_solution_s       tnsa                  thermal workloads
//
// A traced run fails, printing no result, when a metric that applies is
// missing or not finite: sort.s_per_sort, count_s, merge_s and
// scatter_s apply where the workload sorts, domain.wait, overlap, bytes
// and msgs where it has more than one rank, and every other metric
// everywhere. Metrics that do not apply are reported as measured, or 0
// where there was nothing to measure, and named in the record.
package main
