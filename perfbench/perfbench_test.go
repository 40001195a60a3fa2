package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"govpic/internal/core"
)

func build(t *testing.T, name string, seed uint64) *core.Simulation {
	t.Helper()
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	_, s, err := setup(nil, w, seed, w.workersPerRank())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// Each workload loads exactly the particle count it states; tnsa loads
// 256 per cell over 45 electron, 40 ion and 5 proton cells.
func TestWorkloadParticleCounts(t *testing.T) {
	want := map[string]int{
		"uniform":  1_048_576,
		"tiles-2r": 65_536,
		"tnsa":     23_040,
	}
	for _, w := range workloads {
		if got := build(t, w.name, 7).TotalParticles(); got != want[w.name] {
			t.Errorf("%s: %d particles, want %d", w.name, got, want[w.name])
		}
	}
}

// The seed changes every thermal load but not how many particles it
// holds.
func TestSeedChangesLoadNotCounts(t *testing.T) {
	for _, name := range []string{"uniform", "tiles-2r"} {
		a, b := build(t, name, 1), build(t, name, 2)
		if !slices.Equal(a.PerRankParticles(), b.PerRankParticles()) {
			t.Errorf("%s: per-rank counts %v and %v differ across seeds", name, a.PerRankParticles(), b.PerRankParticles())
		}
		if ca, cb := a.StateCRCs(), b.StateCRCs(); slices.Equal(ca, cb) {
			t.Errorf("%s: seeds 1 and 2 load the same state (CRCs %x)", name, ca)
		}
	}
}

// The gate passes a clean run and counts each planted fault as a
// failed operation: a NaN momentum and one flipped checkpoint byte.
func TestGateCountsPlantedFaults(t *testing.T) {
	w, _ := lookupWorkload("tiles-2r")
	s, fresh := build(t, w.name, 3), build(t, w.name, 3)
	n0, e0 := s.TotalParticles(), s.Energy()
	s.Run(20)

	var clean gate
	thermalGate(&clean, s, n0, e0, s.Energy(), w.maxDrift)
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	want := s.StateCRCs()
	restoreInto(&clean, fresh, buf.Bytes(), want)
	if clean.failed != 0 || clean.attempted != 5 {
		t.Fatalf("clean run: %d of %d checks failed: %v", clean.failed, clean.attempted, clean.failures)
	}

	flipped := bytes.Clone(buf.Bytes())
	flipped[len(flipped)/2] ^= 0x40
	var restart gate
	restoreInto(&restart, fresh, flipped, want)
	if restart.failed != 1 {
		t.Errorf("flipped checkpoint byte: %d failures, want 1", restart.failed)
	}

	buf0 := s.Ranks[0].Species[0].Buf
	p := buf0.At(17)
	p.Ux = float32(math.NaN())
	buf0.Set(17, p)
	var nan gate
	thermalGate(&nan, s, n0, e0, s.Energy(), w.maxDrift)
	if nan.failed == 0 {
		t.Errorf("NaN momentum passed the gate")
	}
}

// A traced run that misses a metric which applies fails instead of
// reporting; one that does not apply is reported as 0.
func TestTracedRunCompleteness(t *testing.T) {
	out := &outcome{tr: newTracer("t"), layers: map[string]float64{}, decomposed: true}
	for _, d := range perLayer {
		out.layers[d.name] = 1
	}
	out.layers["sort.s_per_sort"] = math.NaN()
	if _, _, err := out.report(); err != nil {
		t.Fatalf("sort metrics do not apply to an unsorted run: %v", err)
	}
	delete(out.layers, "domain.bytes_per_step")
	_, _, err := out.report()
	if err == nil || !strings.Contains(err.Error(), "domain.bytes_per_step") {
		t.Fatalf("missing domain.bytes_per_step on a decomposed run: err = %v", err)
	}
}

// A short traced run of the decomposed workload reports every
// per-layer metric, with the comm layer actually measured.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	var stdout bytes.Buffer
	if err := run([]string{"--workload", "tiles-2r", "--seed", "5", "--seconds", "1", "--trace", "1"}, &stdout); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("traced run failed its gate: %+v (record %s)", res, lines[0])
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(perLayer))
	}
	for _, name := range []string{"domain.bytes_per_step", "domain.msgs_per_step", "sort.s_per_sort", "push.run_len"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %g, want > 0", name, res.Metrics[name].Value)
		}
	}
}

// BENCHMARK.json names exactly the workloads and metrics the program
// reports, with the same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(names, ", "); got != workloadNames() {
		t.Errorf("workloads %s, program has %s", got, workloadNames())
	}
	var e2e, layers []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("end_to_end %v, program has %v", e2e, endToEnd)
	}
	var prog []metricDef
	for _, d := range perLayer {
		prog = append(prog, d.metricDef)
	}
	if !slices.Equal(layers, prog) {
		t.Errorf("per_layer %v, program has %v", layers, prog)
	}
}
