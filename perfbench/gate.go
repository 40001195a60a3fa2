package main

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"time"

	"govpic/internal/core"
	"govpic/internal/deck"
	"govpic/internal/diag"
	"govpic/internal/valid"
)

// maxDivB bounds the div-B error of every thermal end state; measured
// values are 0.9e-9 to 1.4e-8.
const maxDivB = 1e-7

// gate counts correctness checks: each check is one attempted
// operation and each failed check one failed operation.
type gate struct {
	attempted, failed int
	failures          []string
	// observed keeps the judged values for the result record.
	observed map[string]float64
}

func (g *gate) check(ok bool, format string, args ...any) {
	g.attempted++
	if !ok {
		g.failed++
		g.failures = append(g.failures, fmt.Sprintf(format, args...))
	}
}

// thermalGate judges a thermal end state against its set-up: the walls
// are periodic, so no particle may be lost, and the energy must stay
// finite, divergence-free and within the workload's drift bound. Every
// comparison is written so that a NaN fails it.
func thermalGate(g *gate, s *core.Simulation, n0 int, e0, e diag.EnergySample, maxDrift float64) {
	n := s.TotalParticles()
	g.check(n == n0, "particle count %d, want %d", n, n0)
	g.check(finite(e0.Total) && finite(e.Total), "energy not finite: %g -> %g", e0.Total, e.Total)
	g.check(e.DivBError <= maxDivB, "div-B error %g above %g", e.DivBError, maxDivB)
	drift := (e.Total - e0.Total) / e0.Total
	g.observe("energy_drift", drift)
	g.observe("div_b", e.DivBError)
	g.check(math.Abs(drift) <= maxDrift, "energy drift %g beyond ±%g", drift, maxDrift)
}

// caseGate evaluates every check of a validation case on its observed
// scalars; a missing observable fails.
func caseGate(g *gate, c valid.Case, d deck.Deck, obs valid.Obs) error {
	checks, err := c.Checks(d)
	if err != nil {
		return fmt.Errorf("%s checks: %w", c.Name, err)
	}
	for _, ck := range checks {
		v, ok := obs.Scalars[ck.Observable]
		if !ok {
			v = math.NaN()
		}
		r := ck.Eval(v)
		g.observe(ck.Observable, v)
		g.check(r.Pass, "%s: %s = %g outside its band", c.Name, ck.Observable, v)
	}
	return nil
}

// restoreInto restores a checkpoint into dst and gates the result: the
// restore must succeed and reproduce the checkpointed state CRCs. It
// returns the time Restore took.
func restoreInto(g *gate, dst *core.Simulation, data []byte, want []uint32) time.Duration {
	t0 := time.Now()
	err := dst.Restore(bytes.NewReader(data))
	dt := time.Since(t0)
	if err != nil {
		g.check(false, "restore: %v", err)
		return dt
	}
	got := dst.StateCRCs()
	g.check(slices.Equal(got, want), "state CRCs after restore %x, checkpointed %x", got, want)
	return dt
}

// observe keeps a judged value for the record; a value that is not
// finite has already failed its check and is named in the failure.
func (g *gate) observe(name string, v float64) {
	if !finite(v) {
		return
	}
	if g.observed == nil {
		g.observed = map[string]float64{}
	}
	g.observed[name] = v
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
