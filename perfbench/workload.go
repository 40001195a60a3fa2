package main

import (
	"fmt"
	"runtime"

	"govpic/internal/deck"
)

// workload is one seeded input the benchmark runs. Thermal workloads
// run a fixed number of timed steps after an untimed warm-up and are
// judged by the conservation gate; the solve workload runs a validation
// case to its verdict, repeatedly.
type workload struct {
	name string
	// ranks is the in-process rank count; workers per rank is nproc
	// divided by it, so ranks × workers never exceed nproc when nproc ≥
	// ranks.
	ranks int
	build func(seed uint64, workers int) (deck.Deck, error)

	// Thermal workloads only.
	warmup int
	// steps is the timed step count per 10 s of --seconds. It is a
	// count, not a deadline, so both sides of an A/B comparison do the
	// same work and the drift bound holds at a fixed run length.
	steps int
	// maxDrift bounds |ΔE/E| from set-up to the end of the timed steps
	// at --seconds 10. Thermal decks heat the grid (λD ≈ 0.11 < dx =
	// 0.5), so drift grows with the step count; the bound was fixed from
	// the drift measured on several seeds at that length, with a safety
	// factor of about three, and grows in proportion to longer runs.
	maxDrift float64

	// solve names the validation case whose verdict ends each solution.
	solve string
}

// workloads lists every workload; the reasons for each are in doc.go
// and BENCHMARK.json.
var workloads = []*workload{
	{
		name: "uniform", ranks: 1,
		build: func(seed uint64, workers int) (deck.Deck, error) {
			return thermal(32, 32, 32, 32, 1, 0, seed, workers), nil
		},
		warmup: 20, steps: 180, maxDrift: 1.8e-4,
	},
	{
		name: "tiles-2r", ranks: 2,
		build: func(seed uint64, workers int) (deck.Deck, error) {
			// Cleaning every 8 steps makes 12.5% of the steps slow ones,
			// so step_s.p90 falls inside them; at every 10 it would sit
			// on the edge between fast and slow steps and jump between
			// runs.
			return thermal(32, 16, 16, 8, 2, 8, seed, workers), nil
		},
		warmup: 50, steps: 2000, maxDrift: 6e-3,
	},
	{
		name: "tnsa", ranks: 1,
		build: func(seed uint64, workers int) (deck.Deck, error) {
			p := deck.DefaultTNSA(5)
			p.PPC = 256
			p.Seed = seed
			d, err := deck.TNSA(p)
			d.Cfg.Workers = workers
			return d, err
		},
		solve: "tnsa-ion-acceleration",
	},
}

// thermal builds the periodic thermal deck (n0 0.2, uth 0.05, sorted
// every 20 steps) with the benchmark's seed, cleaning cadence and
// worker count.
func thermal(nx, ny, nz, ppc, ranks, cleanEvery int, seed uint64, workers int) deck.Deck {
	d := deck.Thermal(nx, ny, nz, ppc, ranks, 0.2, 0.05)
	d.Cfg.Workers = workers
	d.Cfg.CleanInterval = cleanEvery
	d.Cfg.Species[0].Load.Seed = seed
	return d
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// workersPerRank shares the host's CPUs among the in-process ranks.
func (w *workload) workersPerRank() int {
	return max(1, runtime.NumCPU()/w.ranks)
}

// driftBound is the energy drift bound for a run of the given timed
// steps.
func (w *workload) driftBound(steps int) float64 {
	return w.maxDrift * max(1, float64(steps)/float64(w.steps))
}

// timedSteps scales the per-10-s step count to the requested seconds.
func (w *workload) timedSteps(seconds int) int {
	return max(1, w.steps*seconds/10)
}
