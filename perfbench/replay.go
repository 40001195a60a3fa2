package main

import (
	"sort"
	"sync"
	"time"

	"govpic/internal/core"
	"govpic/internal/particle"
	"govpic/internal/push"
	psort "govpic/internal/sort"
	"govpic/internal/valid"
)

const replayReps = 5

// perCall times fn in batches long enough to read a clock reliably and
// returns the median seconds per call over replayReps batches.
func perCall(fn func()) float64 {
	const minBatch = 20 * time.Millisecond
	t0 := time.Now()
	fn()
	n := 1
	if one := time.Since(t0); one < minBatch {
		n = int(minBatch/max(one, time.Microsecond)) + 1
	}
	per := make([]float64, replayReps)
	for r := range per {
		t := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per[r] = time.Since(t).Seconds() / float64(n)
	}
	return median(per)
}

// replayLayers calls single layers directly on cp, a disposable copy
// restored from the measured run's end state, so the measured
// simulation is never disturbed. Each replay runs on one thread.
func replayLayers(tr *tracer, cp *core.Simulation, out map[string]float64) {
	defer tr.end(tr.begin("replay"))
	var particles, cells int
	for _, rk := range cp.Ranks {
		for _, sp := range rk.Species {
			particles += sp.Buf.N()
		}
		cells += rk.D.G.NX * rk.D.G.NY * rk.D.G.NZ
	}
	dt := cp.Cfg.DT
	passes := max(cp.Cfg.CleanPasses, 2)

	// Push and sort replay a scratch copy of each buffer, so every
	// repetition starts from the same end state. Two untimed sorts
	// give both of a workspace's ping-pong block slices their full
	// size before timing starts.
	type replayBuf struct {
		k            *push.Kernel
		src, scratch *particle.Buffer
		ws           *psort.Workspace
		nv           int
	}
	var bufs []replayBuf
	for _, rk := range cp.Ranks {
		for i, sp := range rk.Species {
			b := replayBuf{rk.Kernels[i], sp.Buf, particle.NewBuffer(sp.Buf.N()), psort.NewWorkspace(rk.D.G.NV()), rk.D.G.NV()}
			for w := 0; w < 2; w++ {
				b.scratch.CopyFrom(b.src)
				b.ws.ByVoxel(b.scratch, b.nv)
			}
			bufs = append(bufs, b)
		}
	}
	var pushNs, sortNs []float64
	for r := 0; r < replayReps; r++ {
		var pushS, sortS float64
		for _, b := range bufs {
			b.scratch.CopyFrom(b.src)
			t0 := time.Now()
			b.k.AdvanceP(b.scratch)
			pushS += time.Since(t0).Seconds()
			b.k.ClearOutgoing()

			b.scratch.CopyFrom(b.src)
			t0 = time.Now()
			b.ws.ByVoxel(b.scratch, b.nv)
			sortS += time.Since(t0).Seconds()
		}
		pushNs = append(pushNs, pushS*1e9/float64(particles))
		sortNs = append(sortNs, sortS*1e9/float64(particles))
	}
	out["push.ns_per_particle_1t"] = median(pushNs)
	out["sort.ns_per_particle_1t"] = median(sortNs)

	perCell := func(fn func(rk *core.Rank)) float64 {
		return perCall(func() {
			for _, rk := range cp.Ranks {
				fn(rk)
			}
		}) * 1e9 / float64(cells)
	}
	out["field.advance_b_ns_per_cell"] = perCell(func(rk *core.Rank) { rk.D.F.AdvanceB(dt, 0.5) })
	out["field.advance_e_ns_per_cell"] = perCell(func(rk *core.Rank) { rk.D.F.AdvanceE(dt) })
	out["interp.load_ns_per_cell"] = perCell(func(rk *core.Rank) { rk.IP.Load(rk.D.F) })
	out["accum.unload_ns_per_cell"] = perCell(func(rk *core.Rank) { rk.Acc.Unload(rk.D.F, dt) })

	// One Marder clean per rank: deposit the charge density, then the
	// div-E and div-B passes.
	rho := make([][]float32, len(cp.Ranks))
	for r, rk := range cp.Ranks {
		rho[r] = make([]float32, rk.D.G.NV())
	}
	out["field.marder_ms"] = perCall(func() {
		for r, rk := range cp.Ranks {
			clear(rho[r])
			for _, sp := range rk.Species {
				push.DepositRho(rk.D.G, sp.Buf, sp.Q, rho[r])
			}
			rk.D.F.CleanDivE(rho[r], passes, nil)
			rk.D.F.CleanDivB(passes, nil)
		}
	}) * 1e3

	// Ghost exchanges pair ranks up, so every rank runs at once.
	out["domain.ghost_exchange_us"] = perCall(func() {
		var wg sync.WaitGroup
		for _, rk := range cp.Ranks {
			wg.Add(1)
			go func(rk *core.Rank) {
				defer wg.Done()
				rk.D.ExchangeGhostE()
				rk.D.ExchangeGhostB()
			}(rk)
		}
		wg.Wait()
	}) * 1e6

	out["diag.energy_ms"] = perCall(func() { cp.Energy() }) * 1e3
	p := valid.NewSimProbe(cp)
	out["valid.observe_ms"] = perCall(func() { observe(p, len(cp.Cfg.Species)) }) * 1e3
}

// observe makes the probe calls the TNSA case makes at its verdict:
// each species' maximum energy and spectrum, and the first species'
// tail temperature.
func observe(p valid.Probe, species int) {
	for sp := 0; sp < species; sp++ {
		p.MaxKE(sp)
		p.SpectrumKE(sp, 20, 64)
	}
	p.TailKE(0, 0.1)
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v, interpolating linearly between
// order statistics.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
