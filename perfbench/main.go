package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// traceDir is where traced runs write their spans and step deltas,
// relative to the directory the benchmark runs in.
const traceDir = ".bench_build/traces"

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the simulation sees; untraced runs
// report all of them.
var endToEnd = []metricDef{
	{"mpart_per_s", "Mpart/s"},
	{"gflop_per_s", "Gflop/s"},
	{"step_s.p50", "s"},
	{"step_s.p90", "s"},
	{"time_to_solution_s", "s"},
	{"setup_s", "s"},
	{"restart_s", "s"},
	{"rss_peak_mb", "MB"},
}

// applies says on which workloads a per-layer metric must be measured.
type applies int

const (
	always     applies = iota
	sorted             // the workload sorts during its timed steps
	decomposed         // the workload runs more than one rank
)

type layerDef struct {
	metricDef
	when applies
}

// perLayer are the metrics of single layers; traced runs report all of
// them and fail if one that applies is missing or not finite.
var perLayer = []layerDef{
	{metricDef{"push.s_per_step", "s"}, always},
	{metricDef{"push.ns_per_particle_1t", "ns"}, always},
	{metricDef{"push.workers_busy", "workers"}, always},
	{metricDef{"push.run_len", "particles"}, always},
	{metricDef{"push.mover_frac", "ratio"}, always},
	{metricDef{"push.bytes_per_particle", "B"}, always},
	{metricDef{"push.flops_per_particle", "flop"}, always},
	{metricDef{"sort.s_per_sort", "s"}, sorted},
	{metricDef{"sort.count_s", "s"}, sorted},
	{metricDef{"sort.merge_s", "s"}, sorted},
	{metricDef{"sort.scatter_s", "s"}, sorted},
	{metricDef{"sort.ns_per_particle_1t", "ns"}, always},
	{metricDef{"field.s_per_step", "s"}, always},
	{metricDef{"field.advance_b_ns_per_cell", "ns"}, always},
	{metricDef{"field.advance_e_ns_per_cell", "ns"}, always},
	{metricDef{"field.marder_ms", "ms"}, always},
	{metricDef{"interp.load_ns_per_cell", "ns"}, always},
	{metricDef{"accum.unload_ns_per_cell", "ns"}, always},
	{metricDef{"domain.s_per_step", "s"}, always},
	{metricDef{"domain.wait_s_per_step", "s"}, decomposed},
	{metricDef{"domain.overlap_s_per_step", "s"}, decomposed},
	{metricDef{"domain.bytes_per_step", "B"}, decomposed},
	{metricDef{"domain.msgs_per_step", "count"}, decomposed},
	{metricDef{"domain.ghost_exchange_us", "us"}, always},
	{metricDef{"core.unattributed_frac", "ratio"}, always},
	{metricDef{"core.imbalance_particles", "ratio"}, always},
	{metricDef{"core.checkpoint_mb_s", "MB/s"}, always},
	{metricDef{"core.restore_mb_s", "MB/s"}, always},
	{metricDef{"diag.energy_ms", "ms"}, always},
	{metricDef{"valid.observe_ms", "ms"}, always},
	{metricDef{"trace.overhead_frac", "ratio"}, always},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is printed before the result: the host fingerprint and what
// the gate found.
type record struct {
	Host          fingerprint        `json:"host"`
	Failures      []string           `json:"failures,omitempty"`
	Observed      map[string]float64 `json:"observed,omitempty"`
	NotApplicable []string           `json:"not_applicable,omitempty"`
	// StealFrac is the share of the host's CPU time the hypervisor
	// stole during the run; time-based metrics slow down with it.
	StealFrac float64 `json:"steal_frac"`
	Trace     string  `json:"trace_file,omitempty"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name: "+workloadNames())
	seed := fs.Uint64("seed", 1, "seed of every species' particle load")
	seconds := fs.Int("seconds", 10, "run length; scales the timed steps or solutions")
	trace := fs.Int("trace", 0, "1 makes a traced run that reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds ≥ 1 and --trace 0 or 1")
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1}

	var out *outcome
	if w.solve != "" {
		out, err = runSolve(w, o)
	} else {
		out, err = runThermal(w, o)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	res, rec, err := out.report()
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	if out.tr != nil {
		layers := make(map[string]float64, len(res.Metrics))
		for k, m := range res.Metrics {
			layers[k] = m.Value
		}
		if rec.Trace, err = out.tr.write(traceDir, out.host, layers); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
	}
	for _, line := range []any{map[string]record{"record": rec}, res} {
		data, err := json.Marshal(line)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(data))
	}
	return nil
}

// report assembles the result: every end-to-end metric for an untraced
// run, every per-layer metric for a traced one. A metric that applies
// but is missing or not finite is an error, not a result.
func (out *outcome) report() (result, record, error) {
	res := result{
		Correct:   out.g.failed == 0,
		Attempted: out.g.attempted,
		Failed:    out.g.failed,
		Metrics:   map[string]metric{},
	}
	rec := record{Host: out.host, Failures: out.g.failures, Observed: out.g.observed}
	if steal, ticks := cpuTicks(); ticks > out.ticks {
		rec.StealFrac = float64(steal-out.steal) / float64(ticks-out.ticks)
	}
	var bad []string
	if out.tr == nil {
		for _, d := range endToEnd {
			v, ok := out.e2e[d.name]
			if !ok || !finite(v) {
				bad = append(bad, d.name)
			}
			res.Metrics[d.name] = metric{v, d.unit}
		}
	} else {
		for _, d := range perLayer {
			v, ok := out.layers[d.name]
			need := d.when == always || (d.when == sorted && out.sorted) || (d.when == decomposed && out.decomposed)
			switch {
			case !need:
				rec.NotApplicable = append(rec.NotApplicable, d.name)
				if !ok || !finite(v) {
					v = 0
				}
			case !ok || !finite(v):
				bad = append(bad, d.name)
			}
			res.Metrics[d.name] = metric{v, d.unit}
		}
	}
	if len(bad) > 0 {
		return res, rec, fmt.Errorf("metrics missing or not finite: %s", strings.Join(bad, ", "))
	}
	return res, rec, nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
