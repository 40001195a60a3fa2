package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"govpic/internal/core"
	"govpic/internal/deck"
	"govpic/internal/diag"
	"govpic/internal/valid"
)

const (
	// Set-up and restart are repeated for about repeatFor, at least
	// minReps and at most maxReps times, and report their median.
	repeatFor = 2 * time.Second
	minReps   = 5
	maxReps   = 100
	// solveWarmup is the untimed step count that warms a solve
	// workload's code paths and heap before its first solution.
	solveWarmup = 200
)

// options are the command-line settings of one run.
type options struct {
	seed    uint64
	seconds int
	trace   bool
}

// outcome is everything one run measured.
type outcome struct {
	g      gate
	host   fingerprint
	e2e    map[string]float64
	layers map[string]float64
	// sorted and decomposed say which per-layer metrics apply.
	sorted, decomposed bool
	tr                 *tracer
	// steal and ticks are the host's CPU counters when the run began.
	steal, ticks uint64
}

func newOutcome(w *workload, o options) *outcome {
	out := &outcome{
		host:   newFingerprint(w, o),
		e2e:    map[string]float64{},
		layers: map[string]float64{},
	}
	out.steal, out.ticks = cpuTicks()
	if o.trace {
		out.tr = newTracer(fmt.Sprintf("%s-seed%d-%s", w.name, o.seed, time.Now().UTC().Format("20060102T150405")))
	}
	return out
}

// describe fills the fingerprint and applicability from a built
// simulation.
func (out *outcome) describe(s *core.Simulation) {
	out.host.Kernel = s.Cfg.Kernel
	out.host.WorkersPerRank = s.Cfg.Workers
	out.host.Particles = s.TotalParticles()
	out.decomposed = s.Cfg.NRanks > 1
	for _, sp := range s.Cfg.Species {
		out.sorted = out.sorted || sp.SortInterval > 0
	}
}

// setup builds the workload's deck and simulation.
func setup(tr *tracer, w *workload, seed uint64, workers int) (deck.Deck, *core.Simulation, error) {
	h := tr.begin("deck.build")
	d, err := w.build(seed, workers)
	tr.end(h)
	if err != nil {
		return d, nil, fmt.Errorf("build %s deck: %w", w.name, err)
	}
	h = tr.begin("core.New")
	s, err := d.New()
	tr.end(h)
	if err != nil {
		return d, nil, fmt.Errorf("new %s simulation: %w", w.name, err)
	}
	return d, s, nil
}

// segments is how many contiguous stretches of a phase its rates are
// taken over. The reported rate is their median, so a stretch in which
// the host stalled the run does not move it.
const segments = 10

// phase is a stretch of timed steps, one sample per step.
type phase struct {
	stepS         []float64
	pushed, flops []int64
	// wall is the phase's whole wall time, including whatever ran
	// between the steps (the trace reads, when tracing).
	wall                  float64
	lastPushed, lastFlops int64
}

// begin takes the counter readings the first step's sample starts from.
func (p *phase) begin(s *core.Simulation) {
	p.lastPushed, p.lastFlops = s.PushedParticles(), s.Flops()
}

// sample records one step that took dt.
func (p *phase) sample(s *core.Simulation, dt time.Duration) {
	pushed, flops := s.PushedParticles(), s.Flops()
	p.stepS = append(p.stepS, dt.Seconds())
	p.pushed = append(p.pushed, pushed-p.lastPushed)
	p.flops = append(p.flops, flops-p.lastFlops)
	p.lastPushed, p.lastFlops = pushed, flops
}

func (p *phase) add(q phase) {
	p.stepS = append(p.stepS, q.stepS...)
	p.pushed = append(p.pushed, q.pushed...)
	p.flops = append(p.flops, q.flops...)
	p.wall += q.wall
}

// overallMpartPerS is the push rate over the phase's whole wall time.
func (p phase) overallMpartPerS() float64 {
	var n int64
	for _, c := range p.pushed {
		n += c
	}
	return float64(n) / p.wall / 1e6
}

// rate is count per second of step time, the median over the phase's
// segments.
func (p phase) rate(count []int64) float64 {
	n := len(p.stepS)
	k := min(segments, n)
	rates := make([]float64, k)
	for i := range rates {
		var c int64
		var t float64
		for j := i * n / k; j < (i+1)*n/k; j++ {
			c += count[j]
			t += p.stepS[j]
		}
		rates[i] = float64(c) / t
	}
	return median(rates)
}

func (p phase) metrics(m map[string]float64) {
	m["mpart_per_s"] = p.rate(p.pushed) / 1e6
	m["gflop_per_s"] = p.rate(p.flops) / 1e9
	m["step_s.p50"] = quantile(p.stepS, 0.5)
	m["step_s.p90"] = quantile(p.stepS, 0.9)
}

// runSteps times n steps of s one by one.
func runSteps(tr *tracer, s *core.Simulation, n int) phase {
	var p phase
	p.begin(s)
	tr.mark(s)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		h := tr.begin("core.Step")
		ts := time.Now()
		s.Step()
		dt := time.Since(ts)
		tr.end(h)
		p.sample(s, dt)
		tr.step(s, dt)
	}
	p.wall = time.Since(t0).Seconds()
	return p
}

func energy(tr *tracer, s *core.Simulation) diag.EnergySample {
	defer tr.end(tr.begin("diag.Energy"))
	return s.Energy()
}

// reps is how many times to repeat something whose first repetition
// took first.
func reps(first float64) int {
	return min(maxReps, max(minReps, int(repeatFor.Seconds()/first)+1))
}

// restartStats are the checkpoint/restore rounds of one run.
type restartStats struct {
	round, checkpoint, restore []float64
	bytes                      int
}

// restartRounds checkpoints s's end state to memory and restores it
// into fresh, repeatedly, gating every round.
func restartRounds(g *gate, tr *tracer, s, fresh *core.Simulation) (restartStats, error) {
	want := s.StateCRCs()
	var buf bytes.Buffer
	var st restartStats
	for i := 0; i == 0 || i < reps(st.round[0]); i++ {
		// Checkpoint and Restore allocate their I/O buffers; collecting
		// first keeps a collection cycle from landing inside some rounds
		// and not others.
		runtime.GC()
		buf.Reset()
		h := tr.begin("core.Checkpoint")
		t0 := time.Now()
		err := s.Checkpoint(&buf)
		cp := time.Since(t0)
		tr.end(h)
		if err != nil {
			return st, fmt.Errorf("checkpoint: %w", err)
		}
		h = tr.begin("core.Restore")
		rs := restoreInto(g, fresh, buf.Bytes(), want)
		tr.end(h)
		st.round = append(st.round, (cp + rs).Seconds())
		st.checkpoint = append(st.checkpoint, cp.Seconds())
		st.restore = append(st.restore, rs.Seconds())
	}
	st.bytes = buf.Len()
	return st, nil
}

// finish records the restart, memory and, when tracing, per-layer
// metrics that every workload shares.
func (out *outcome) finish(s, fresh *core.Simulation) error {
	st, err := restartRounds(&out.g, out.tr, s, fresh)
	if err != nil {
		return err
	}
	out.e2e["restart_s"] = median(st.round)
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	out.e2e["rss_peak_mb"] = rss
	if out.tr == nil {
		return nil
	}
	mb := float64(st.bytes) / 1e6
	out.layers["core.checkpoint_mb_s"] = mb / median(st.checkpoint)
	out.layers["core.restore_mb_s"] = mb / median(st.restore)
	counts := s.PerRankParticles()
	most, sum := 0, 0
	for _, n := range counts {
		most = max(most, n)
		sum += n
	}
	out.layers["core.imbalance_particles"] = float64(most) * float64(len(counts)) / float64(sum)
	out.tr.stepLayers(out.layers)
	// fresh now holds the end state: it is the disposable copy the
	// single-layer replays run on.
	replayLayers(out.tr, fresh, out.layers)
	return nil
}

// runThermal runs a thermal workload: set-up, warm-up, timed steps, the
// conservation gate and the restart check.
func runThermal(w *workload, o options) (*outcome, error) {
	out := newOutcome(w, o)
	tr := out.tr
	workers := w.workersPerRank()

	// The next-to-last set-up survives as the restore target of the
	// restart check; the earlier ones are collected and their memory
	// returned before the next set-up starts, so every set-up starts
	// from the same heap and the peak RSS does not depend on when the
	// runtime would have collected them.
	var s, fresh *core.Simulation
	var start time.Time
	var setups []float64
	for i := 0; i == 0 || i < reps(setups[0]); i++ {
		debug.FreeOSMemory()
		start = time.Now()
		_, sim, err := setup(tr, w, o.seed, workers)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		s, fresh = sim, s
	}
	out.describe(s)
	out.e2e["setup_s"] = median(setups)

	n0 := s.TotalParticles()
	e0 := energy(tr, s)
	s.Run(w.warmup)
	steps := w.timedSteps(o.seconds)
	debug.FreeOSMemory()
	var ph phase
	if tr == nil {
		ph = runSteps(nil, s, steps)
	} else {
		// The same steps run untraced, then traced from the same warm
		// state; their rates give the tracing overhead.
		var warm bytes.Buffer
		if err := s.Checkpoint(&warm); err != nil {
			return nil, fmt.Errorf("checkpoint warm state: %w", err)
		}
		plain := runSteps(nil, s, steps)
		if err := s.Restore(bytes.NewReader(warm.Bytes())); err != nil {
			return nil, fmt.Errorf("restore warm state: %w", err)
		}
		debug.FreeOSMemory()
		ph = runSteps(tr, s, steps)
		out.layers["trace.overhead_frac"] = 1 - ph.overallMpartPerS()/plain.overallMpartPerS()
	}
	thermalGate(&out.g, s, n0, e0, energy(tr, s), w.driftBound(steps))
	out.e2e["time_to_solution_s"] = time.Since(start).Seconds()
	ph.metrics(out.e2e)
	out.host.StepSamples = len(ph.stepS)
	return out, out.finish(s, fresh)
}

// benchProbe is the observable surface handed to a validation case: it
// times every step and, when tracing, records a span around each step
// and observable call plus the step's counter deltas.
type benchProbe struct {
	valid.Probe
	s  *core.Simulation
	tr *tracer
	ph phase
}

func (p *benchProbe) Step() {
	h := p.tr.begin("core.Step")
	t0 := time.Now()
	p.Probe.Step()
	dt := time.Since(t0)
	p.tr.end(h)
	p.ph.sample(p.s, dt)
	p.tr.step(p.s, dt)
	p.ph.wall += time.Since(t0).Seconds()
}

func (p *benchProbe) Energy() diag.EnergySample {
	defer p.tr.end(p.tr.begin("diag.Energy"))
	return p.Probe.Energy()
}

func (p *benchProbe) MaxKE(sp int) float64 {
	defer p.tr.end(p.tr.begin("valid.MaxKE"))
	return p.Probe.MaxKE(sp)
}

func (p *benchProbe) SpectrumKE(sp int, emax float64, bins int) []float64 {
	defer p.tr.end(p.tr.begin("valid.SpectrumKE"))
	return p.Probe.SpectrumKE(sp, emax, bins)
}

func (p *benchProbe) TailKE(sp int, cut float64) (float64, float64) {
	defer p.tr.end(p.tr.begin("valid.TailKE"))
	return p.Probe.TailKE(sp, cut)
}

// solution is one run of a validation case from deck build to verdict.
type solution struct {
	s          *core.Simulation
	setup, tts float64
	ph         phase
}

func solveOnce(g *gate, tr *tracer, w *workload, seed uint64, workers int, c valid.Case) (solution, error) {
	defer tr.end(tr.begin("solution"))
	start := time.Now()
	d, s, err := setup(tr, w, seed, workers)
	if err != nil {
		return solution{}, err
	}
	sol := solution{s: s, setup: time.Since(start).Seconds()}
	p := &benchProbe{Probe: valid.NewSimProbe(s), s: s, tr: tr}
	p.ph.begin(s)
	tr.mark(s)
	obs, err := c.Observe(p, d, c.Spec.Steps)
	if err != nil {
		return sol, fmt.Errorf("%s observe: %w", c.Name, err)
	}
	if err := caseGate(g, c, d, obs); err != nil {
		return sol, err
	}
	sol.tts = time.Since(start).Seconds()
	sol.ph = p.ph
	return sol, nil
}

// runSolve runs a validation case to its verdict once per 3 s of
// --seconds and reports medians over the solutions.
func runSolve(w *workload, o options) (*outcome, error) {
	out := newOutcome(w, o)
	c, ok := valid.Builtin().Lookup(w.solve)
	if !ok {
		return nil, fmt.Errorf("no validation case %q", w.solve)
	}
	workers := w.workersPerRank()

	_, warm, err := setup(nil, w, o.seed, workers)
	if err != nil {
		return nil, err
	}
	warm.Run(solveWarmup)

	var all phase
	var setups, ttss []float64
	var last solution
	for i := 0; i < max(1, o.seconds/3); i++ {
		debug.FreeOSMemory()
		last, err = solveOnce(&out.g, nil, w, o.seed, workers, c)
		if err != nil {
			return nil, err
		}
		setups = append(setups, last.setup)
		ttss = append(ttss, last.tts)
		all.add(last.ph)
	}
	if out.tr != nil {
		// One more solution with tracing on; its rate against the
		// untraced ones gives the tracing overhead.
		debug.FreeOSMemory()
		traced, err := solveOnce(&out.g, out.tr, w, o.seed, workers, c)
		if err != nil {
			return nil, err
		}
		out.layers["trace.overhead_frac"] = 1 - traced.ph.overallMpartPerS()/all.overallMpartPerS()
		last = traced
	}
	for len(setups) < reps(setups[0]) {
		debug.FreeOSMemory()
		t0 := time.Now()
		if _, _, err := setup(nil, w, o.seed, workers); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	_, fresh, err := setup(nil, w, o.seed, workers)
	if err != nil {
		return nil, err
	}
	out.describe(fresh)
	out.e2e["setup_s"] = median(setups)
	out.e2e["time_to_solution_s"] = median(ttss)
	all.metrics(out.e2e)
	out.host.StepSamples = len(all.stepS)
	return out, out.finish(last.s, fresh)
}
