package core

import (
	"context"
	"fmt"
	"sync"

	"govpic/internal/accum"
	"govpic/internal/balance"
	"govpic/internal/collision"
	"govpic/internal/diag"
	"govpic/internal/domain"
	"govpic/internal/field"
	"govpic/internal/grid"
	"govpic/internal/interp"
	"govpic/internal/loader"
	"govpic/internal/mp"
	"govpic/internal/particle"
	"govpic/internal/perf"
	"govpic/internal/pipe"
	"govpic/internal/push"
	psort "govpic/internal/sort"
	"govpic/internal/species"
)

// Rank is one decomposed tile's full state. Exported fields support
// diagnostics and tests; mutate nothing between Step calls.
type Rank struct {
	D       *domain.Domain
	IP      *interp.Table
	Acc     *accum.Array
	Species []*species.Species
	Kernels []*push.Kernel
	Perf    perf.Breakdown
	// Colliders holds per-species collision operators (nil when the
	// species is collisionless).
	Colliders []*collision.Operator

	sortWS  *psort.Workspace
	rho     []float32 // scratch charge density
	rho0    []float32 // static background (NeutralizingBackground)
	scratch []float32

	// Intra-rank pipeline state: the worker pool, one private
	// accumulator per pipeline block (allocated once, reused every
	// step), the per-block push states, and the reusable buffer-pointer
	// slice for the particle exchange.
	pool    *pipe.Pool
	pipeAcc []*accum.Array
	blockSt []*push.BlockState
	bufs    []*particle.Buffer

	// Boundary-first push state (multi-rank pipelined path): shell
	// marks the voxels adjacent to a remote face — the only voxels
	// whose particles can migrate this step under the CFL bound — so
	// the step can push them first, post the particle exchange, and
	// push the interior while migrants fly. partNI holds each species'
	// interior count after partitioning; partTail is partition scratch.
	splitPush bool
	shell     []bool
	partNI    []int
	partTail  []particle.Particle
}

// Simulation is the top-level driver: it owns all ranks and advances
// them in lockstep. Between Step calls all rank state is quiescent and
// may be read by diagnostics.
type Simulation struct {
	Cfg   Config
	World *mp.World
	Ranks []*Rank

	step int
	time float64

	sortPasses psort.Passes

	wg sync.WaitGroup
}

// New builds and initializes a simulation: decomposition, field
// allocation, particle loading (decomposition-invariant), neutralizing
// backgrounds, and first interpolator load.
func New(cfg Config) (*Simulation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dcfg, err := DomainConfig(&cfg)
	if err != nil {
		return nil, err
	}
	world := mp.NewWorld(cfg.NRanks)
	s := &Simulation{Cfg: cfg, World: world, Ranks: make([]*Rank, cfg.NRanks)}

	for r := 0; r < cfg.NRanks; r++ {
		rk, err := newRank(&cfg, dcfg, world.Comm(r))
		if err != nil {
			return nil, err
		}
		s.Ranks[r] = rk
	}

	// Background capture and ghost priming involve collectives, so all
	// ranks must run them concurrently.
	errs := make([]error, cfg.NRanks)
	s.onAllRanks(func(rk *Rank) {
		errs[rk.D.Rank] = rk.initDecomposed(&cfg)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

// DomainConfig derives the decomposed-domain configuration (including
// the rank decomposition) from a validated simulation config. Every
// rank of a world — in-process or distributed — must derive the same
// one, so loading stays decomposition-invariant. A pinned CutsX or an
// active balance mode switches to an x-slab decomposition whose x
// extent need not divide evenly (the cuts place the planes); otherwise
// the classic even-divisibility chooser runs, so existing decks keep
// their exact decomposition.
func DomainConfig(cfg *Config) (domain.Config, error) {
	px := 0
	if cfg.CutsX != nil {
		px = len(cfg.CutsX) - 1
	} else if cfg.Balance.Mode != balance.Off {
		px = cfg.NRanks
	}
	var dec grid.Decomp
	var err error
	if px > 0 {
		dec, err = grid.ChooseDecompFixedPX(cfg.NRanks, px, cfg.NX, cfg.NY, cfg.NZ)
	} else {
		dec, err = grid.ChooseDecomp(cfg.NRanks, cfg.NX, cfg.NY, cfg.NZ)
	}
	if err != nil {
		return domain.Config{}, err
	}
	dcfg := domain.Config{
		Dec: dec, DX: cfg.DX, DY: cfg.DY, DZ: cfg.DZ,
		X0: cfg.X0, Y0: cfg.Y0, Z0: cfg.Z0,
		FieldBC: cfg.FieldBC, ParticleBC: cfg.ParticleBC,
	}
	if cfg.CutsX != nil {
		uni := grid.Uniform(dec)
		lay, err := grid.NewLayout(dec, cfg.CutsX, uni.CY, uni.CZ)
		if err != nil {
			return domain.Config{}, err
		}
		dcfg.Layout = lay
	}
	return dcfg, nil
}

// newRank builds one rank's tile: domain, kernels, species loading
// (decomposition-invariant) and scratch. It performs no communication,
// so ranks can be built in any order, on one process or many.
func newRank(cfg *Config, dcfg domain.Config, comm *mp.Comm) (*Rank, error) {
	d, err := domain.New(dcfg, comm)
	if err != nil {
		return nil, err
	}
	d.Overlap = !cfg.NoOverlap
	gl := loader.Global{NX: cfg.NX, NY: cfg.NY, NZ: cfg.NZ, X0: cfg.X0, Y0: cfg.Y0, Z0: cfg.Z0}
	r := comm.Rank()
	rk := &Rank{
		D:   d,
		IP:  interp.NewTable(d.G),
		Acc: accum.New(d.G),
	}
	rk.sortWS = psort.NewWorkspace(d.G.NV())
	rk.rho = make([]float32, d.G.NV())
	rk.scratch = make([]float32, d.G.NV())
	rk.pool = pipe.New(cfg.Workers)
	rk.sortWS.SetPool(rk.pool)
	if !cfg.UseReferencePusher {
		rk.pipeAcc = make([]*accum.Array, pipe.NumBlocks)
		rk.blockSt = make([]*push.BlockState, pipe.NumBlocks)
		for b := range rk.pipeAcc {
			rk.pipeAcc[b] = accum.New(d.G)
			rk.blockSt[b] = new(push.BlockState)
		}
	}

	for i, sc := range cfg.Species {
		sp, err := species.New(sc.Name, sc.Q, sc.M, sc.SortInterval)
		if err != nil {
			return nil, err
		}
		switch {
		case sc.NeutralizePrevious:
			prev := rk.Species[i-1]
			uth := [3]float64{}
			if sc.Load != nil {
				uth = sc.Load.Uth
			}
			seed := uint64(1)
			if sc.Load != nil {
				seed = sc.Load.Seed
			}
			if err := loader.LoadNeutralizing(prev.Buf, sc.Q, uth, seed, sp.Buf); err != nil {
				return nil, err
			}
		case sc.Load != nil:
			if _, err := loader.Load(d.G, gl, *sc.Load, sp.Buf); err != nil {
				return nil, err
			}
		}
		k := push.NewKernel(d.G, rk.IP, rk.Acc, sp.Q, sp.M, cfg.DT)
		k.Lanes = cfg.Lanes
		k.Asm = cfg.Kernel == push.KernelAsm
		k.Bound = d.ParticleActions()
		rk.Species = append(rk.Species, sp)
		rk.Kernels = append(rk.Kernels, k)
		var op *collision.Operator
		if sc.Collision != nil {
			uthRef := 0.01
			if sc.Load != nil && sc.Load.Uth[0] > 0 {
				uthRef = sc.Load.Uth[0]
			}
			op, err = collision.New(sc.Collision.Nu0, uthRef, sc.Collision.Interval, 0xc0111de, r*len(cfg.Species)+i)
			if err != nil {
				return nil, err
			}
		}
		rk.Colliders = append(rk.Colliders, op)
	}
	rk.bufs = make([]*particle.Buffer, len(rk.Species))
	for i, sp := range rk.Species {
		rk.bufs[i] = sp.Buf
	}
	// Pre-size hot-path scratch (movers, outgoing faces, per-block
	// mover and pending lists) so steady-state steps allocate nothing.
	for i, sp := range rk.Species {
		n := sp.Buf.N()
		rk.Kernels[i].Prealloc(n/16+64, n/64+16)
	}
	for _, bs := range rk.blockSt {
		bs.Movers = make([]particle.Mover, 0, 1024)
		bs.Pending = make([]push.Pending, 0, 256)
	}
	// Boundary-first push applies whenever a neighbor exists (every
	// multi-rank decomposition gives each rank at least one remote
	// face); the single-rank and reference paths keep the original
	// unsplit sweep.
	if cfg.NRanks > 1 && !cfg.UseReferencePusher {
		rk.splitPush = true
		rk.shell = shellMask(d)
		rk.partNI = make([]int, len(rk.Species))
	}
	// Initial sort for locality.
	for _, sp := range rk.Species {
		if sp.SortInterval > 0 {
			rk.sortWS.ByVoxel(sp.Buf, d.G.NV())
		}
	}
	return rk, nil
}

// shellMask marks every interior voxel adjacent to a remote face. Under
// the Courant bound (Validate rejects DT at or above the cell's limit) a
// particle's per-axis displacement is below one cell per step, so only
// particles in these voxels can cross a remote face and migrate.
func shellMask(d *domain.Domain) []bool {
	g := d.G
	shell := make([]bool, g.NV())
	var rem [field.NumFaces]bool
	for f := field.Face(0); f < field.NumFaces; f++ {
		rem[f] = d.Remote(f)
	}
	for iz := 1; iz <= g.NZ; iz++ {
		for iy := 1; iy <= g.NY; iy++ {
			for ix := 1; ix <= g.NX; ix++ {
				if (rem[field.XLo] && ix == 1) || (rem[field.XHi] && ix == g.NX) ||
					(rem[field.YLo] && iy == 1) || (rem[field.YHi] && iy == g.NY) ||
					(rem[field.ZLo] && iz == 1) || (rem[field.ZHi] && iz == g.NZ) {
					shell[g.Voxel(ix, iy, iz)] = true
				}
			}
		}
	}
	return shell
}

// partitionBoundary stably partitions a species buffer so interior
// particles come first and boundary-shell particles form a tail block,
// returning the interior count. The partition is a fixed reordering of
// the buffer (independent of worker count), so the split push remains
// bit-identical for any number of workers.
func (rk *Rank) partitionBoundary(buf *particle.Buffer) int {
	n := buf.N()
	tail := rk.partTail[:0]
	w := 0
	for i := 0; i < n; i++ {
		p := buf.At(i)
		if rk.shell[p.Voxel] {
			tail = append(tail, p)
		} else {
			buf.Set(w, p)
			w++
		}
	}
	for j := range tail {
		buf.Set(w+j, tail[j])
	}
	rk.partTail = tail
	return w
}

// initDecomposed finishes a rank's initialization with the phases that
// communicate: the neutralizing-background capture and the first ghost
// and interpolator prime. Every rank of the world must call it
// concurrently. The message order per link is deterministic, so fusing
// the phases is behavior-identical to running them under separate
// barriers.
func (rk *Rank) initDecomposed(cfg *Config) error {
	// Neutralizing background: capture −ρ(t=0) so cleaning targets
	// ρ_mobile − ρ_initial (consistent with the E=0 start).
	if cfg.NeutralizingBackground {
		rk.rho0 = make([]float32, rk.D.G.NV())
		rk.depositAllRho(rk.rho0)
		// Fold boundary-plane aliases exactly like the per-step ρ, or
		// the background would be short by the ghost contributions.
		rk.D.F.FoldNodeScalar(rk.rho0)
		rk.D.ExchangeNodeScalar(rk.rho0)
		negate(rk.rho0)
	}
	// Prime ghost planes and interpolators.
	rk.D.F.UpdateGhostE()
	rk.D.F.UpdateGhostB()
	rk.D.ExchangeGhostE()
	rk.D.ExchangeGhostB()
	rk.IP.Load(rk.D.F)
	return nil
}

func negate(a []float32) {
	for i := range a {
		a[i] = -a[i]
	}
}

// onAllRanks runs fn concurrently on every rank and waits; fn may use
// the rank's Comm (collectives included).
func (s *Simulation) onAllRanks(fn func(rk *Rank)) {
	s.wg.Add(len(s.Ranks))
	for _, rk := range s.Ranks {
		go func(rk *Rank) {
			defer s.wg.Done()
			fn(rk)
		}(rk)
	}
	s.wg.Wait()
}

// Step advances the whole simulation by one time step.
func (s *Simulation) Step() {
	tNow := s.time
	doClean := s.Cfg.CleanInterval > 0 && s.step > 0 && s.step%s.Cfg.CleanInterval == 0
	stepNo := s.step
	s.onAllRanks(func(rk *Rank) {
		rk.stepOnce(&s.Cfg, tNow, stepNo, doClean)
	})
	s.step++
	s.time += s.Cfg.DT
	if s.Cfg.Balance.Mode == balance.Online && s.step%s.Cfg.Balance.Interval == 0 {
		s.onAllRanks(func(rk *Rank) { rk.maybeReshapeX(&s.Cfg) })
	}
}

// Run advances n steps.
func (s *Simulation) Run(n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

// RunContext advances the simulation until it has completed `until`
// total steps (counting any steps already taken, e.g. before a restore),
// stopping early when ctx is cancelled. After every step — while the
// simulation is quiescent and safe to inspect, checkpoint, or sample —
// the progress callback (if non-nil) is invoked with the completed step
// count. Returns ctx.Err() on cancellation, nil on completion. This is
// the service-tier entry point: progress drives job status, energy
// sampling and periodic checkpoints, and cancellation implements
// preemption.
func (s *Simulation) RunContext(ctx context.Context, until int, progress func(step int)) error {
	for s.step < until {
		if err := ctx.Err(); err != nil {
			return err
		}
		s.Step()
		if progress != nil {
			progress(s.step)
		}
	}
	return nil
}

// StepCount returns the number of completed steps.
func (s *Simulation) StepCount() int { return s.step }

// Time returns the current simulation time.
func (s *Simulation) Time() float64 { return s.time }

// stepOnce is one rank's whole time step; all cross-rank interactions go
// through the domain exchanges, which synchronize the ranks pairwise.
func (rk *Rank) stepOnce(cfg *Config, tNow float64, step int, doClean bool) {
	d := rk.D
	f := d.F

	// Periodic particle sort (VPIC: keeps the gather/scatter streaming)
	// and collisions, which require voxel order and so run right after.
	rk.Perf.Start(perf.Sort)
	var sortBytes int64
	for i, sp := range rk.Species {
		op := rk.Colliders[i]
		collide := op != nil && op.Due(step)
		if sp.ShouldSort(step) || collide {
			rk.sortWS.ByVoxel(sp.Buf, d.G.NV())
			sortBytes += psort.TrafficBytes(sp.Buf.N())
		}
		if collide {
			op.Apply(d.G, sp.Buf, cfg.DT)
		}
	}
	rk.stopPar(perf.Sort)
	rk.Perf.AddBytes(perf.Sort, sortBytes)

	// Particle advance and current deposition (the inner loop). The
	// pipelined path pushes pipe.NumBlocks contiguous blocks per species
	// concurrently, each into its private accumulator, finishes the
	// face-crossers serially, then reduces the block accumulators into
	// the rank accumulator in fixed order — bit-identical for any
	// worker count (see internal/pipe).
	rk.Perf.Start(perf.Push)
	var pushBytes int64
	var px *domain.ParticleExchange
	switch {
	case cfg.UseReferencePusher:
		pushBytes += int64(rk.Acc.WindowLen()) * accum.CellBytes
		rk.Acc.Clear()
		for i, sp := range rk.Species {
			rk.Kernels[i].AdvancePRef(sp.Buf, f)
		}
	case !rk.splitPush:
		// Windowed clears/reduce touch only occupied accumulator spans;
		// charge their actual window sizes to the traffic model.
		for _, a := range rk.pipeAcc {
			pushBytes += int64(a.WindowLen()) * accum.CellBytes
		}
		accum.ClearAll(rk.pool, rk.pipeAcc)
		for i, sp := range rk.Species {
			k := rk.Kernels[i]
			buf := sp.Buf
			n := buf.N()
			rk.pool.Run(pipe.NumBlocks, func(b int) {
				bs := rk.blockSt[b]
				bs.Reset()
				// Lane-aligned cuts: each pipeline sweeps whole AoSoA
				// blocks, so the wide-lane kernel runs full spans and no
				// two pipelines write lanes of the same storage block.
				lo, hi := pipe.AlignedRange(0, n, pipe.NumBlocks, b, particle.Lanes)
				k.AdvanceBlock(buf, lo, hi, rk.pipeAcc[b], bs)
			})
			k.FinishBlocks(buf, rk.blockSt)
		}
		// Zeroes rk.Acc's stale window before summing, so immigrants
		// finishing their move deposit on top during the exchange.
		union := accum.Reduce(rk.pool, rk.Acc, rk.pipeAcc)
		pushBytes += int64(union) * accum.CellBytes * int64(len(rk.pipeAcc)+1)
	default:
		// Boundary-first push: partition each species so the shell
		// particles form a tail block, push the tail, post the particle
		// exchange (only shell particles can migrate under the CFL
		// bound, so the outgoing lists are final), then push the
		// interior while the migrants fly. The partition and phase
		// order are fixed, so results are bit-identical for any worker
		// count and for overlap on/off — only the exchange scheduling
		// differs.
		for _, a := range rk.pipeAcc {
			pushBytes += int64(a.WindowLen()) * accum.CellBytes
		}
		for i, sp := range rk.Species {
			rk.partNI[i] = rk.partitionBoundary(sp.Buf)
		}
		accum.ClearAll(rk.pool, rk.pipeAcc)
		for i, sp := range rk.Species {
			k := rk.Kernels[i]
			buf := sp.Buf
			ni := rk.partNI[i]
			nb := buf.N() - ni
			rk.pool.Run(pipe.NumBlocks, func(b int) {
				bs := rk.blockSt[b]
				bs.Reset()
				lo, hi := pipe.AlignedRange(ni, ni+nb, pipe.NumBlocks, b, particle.Lanes)
				k.AdvanceBlock(buf, lo, hi, rk.pipeAcc[b], bs)
			})
			k.FinishBlocks(buf, rk.blockSt)
		}
		rk.Perf.Stop(perf.Push)
		rk.Perf.Start(perf.Comm)
		px = d.BeginParticleExchange(rk.Kernels, rk.bufs)
		rk.Perf.Stop(perf.Comm)
		rk.Perf.Start(perf.Push)
		for i, sp := range rk.Species {
			k := rk.Kernels[i]
			buf := sp.Buf
			ni := rk.partNI[i]
			rk.pool.Run(pipe.NumBlocks, func(b int) {
				bs := rk.blockSt[b]
				bs.Reset()
				lo, hi := pipe.AlignedRange(0, ni, pipe.NumBlocks, b, particle.Lanes)
				k.AdvanceBlock(buf, lo, hi, rk.pipeAcc[b], bs)
			})
			k.FinishBlocks(buf, rk.blockSt)
		}
		// Zeroes rk.Acc's stale window before summing, so immigrants
		// finishing their move deposit on top during the exchange.
		union := accum.Reduce(rk.pool, rk.Acc, rk.pipeAcc)
		pushBytes += int64(union) * accum.CellBytes * int64(len(rk.pipeAcc)+1)
	}
	for _, k := range rk.Kernels {
		pushBytes += k.TakeTrafficBytes()
	}
	rk.stopPar(perf.Push)
	rk.Perf.AddBytes(perf.Push, pushBytes)

	// Complete the migration (or, on the unsplit paths, run it whole).
	rk.Perf.Start(perf.Comm)
	if px != nil {
		px.Complete()
	} else {
		d.ExchangeParticles(rk.Kernels, rk.bufs)
	}
	rk.Perf.Stop(perf.Comm)

	// Reduce currents onto the mesh (plus the antenna drive).
	rk.Perf.Start(perf.Field)
	f.ClearJ()
	for _, a := range cfg.Lasers {
		a.Inject(f, tNow, cfg.DT)
	}
	rk.Acc.UnloadPar(rk.pool, f, cfg.DT)
	f.FoldGhostJ()
	rk.stopPar(perf.Field)

	// Field advance: B half, E full, B half. With overlap on, the
	// current reduction rides behind the first B half-advance —
	// ExchangeJ touches only J while AdvanceB reads B/E, so running
	// them concurrently is bit-identical. The exchange goroutine's
	// panic (a typed CommError from a sick peer) is captured and
	// re-raised on the rank's own goroutine so supervising drivers can
	// still recover and attribute it.
	if cfg.NoOverlap {
		rk.Perf.Start(perf.Comm)
		d.ExchangeJ()
		rk.Perf.Stop(perf.Comm)
		rk.Perf.Start(perf.Field)
		f.AdvanceBPar(rk.pool, cfg.DT, 0.5)
		rk.stopPar(perf.Field)
	} else {
		var jerr any
		jdone := make(chan struct{})
		go func() {
			defer close(jdone)
			defer func() { jerr = recover() }()
			d.ExchangeJ()
		}()
		rk.Perf.Start(perf.Field)
		f.AdvanceBPar(rk.pool, cfg.DT, 0.5)
		rk.stopPar(perf.Field)
		rk.Perf.Start(perf.Comm)
		<-jdone
		if jerr != nil {
			panic(jerr)
		}
		rk.Perf.Stop(perf.Comm)
	}
	rk.Perf.Start(perf.Comm)
	d.ExchangeGhostB()
	rk.Perf.Stop(perf.Comm)

	rk.Perf.Start(perf.Field)
	f.AdvanceEPar(rk.pool, cfg.DT)
	rk.stopPar(perf.Field)
	rk.Perf.Start(perf.Comm)
	d.ExchangeGhostE()
	rk.Perf.Stop(perf.Comm)

	rk.Perf.Start(perf.Field)
	f.AdvanceBPar(rk.pool, cfg.DT, 0.5)
	rk.stopPar(perf.Field)
	rk.Perf.Start(perf.Comm)
	d.ExchangeGhostB()
	rk.Perf.Stop(perf.Comm)

	// Divergence cleaning.
	if doClean {
		rk.Perf.Start(perf.Field)
		rk.clean(cfg)
		rk.Perf.Stop(perf.Field)
	}

	// Refresh interpolators for the next step (and for any field
	// diagnostics run between steps).
	rk.Perf.Start(perf.Field)
	rk.IP.LoadPar(rk.pool, f)
	rk.stopPar(perf.Field)

	// Fold the step's request wait/overlap deltas into the breakdown.
	if st := d.Comm.Stats(); st != nil {
		w, o := st.TakeOverlap()
		rk.Perf.AddCommWait(w)
		rk.Perf.AddCommOverlap(o)
	}
}

// stopPar stops a section's timer and folds the worker-pool busy/wall
// stats of the parallel regions that ran inside it into the breakdown.
func (rk *Rank) stopPar(s perf.Section) {
	rk.Perf.Stop(s)
	busy, wall := rk.pool.TakeStats()
	rk.Perf.AddParallel(s, busy, wall)
}

// clean runs the multi-rank-safe Marder passes.
func (rk *Rank) clean(cfg *Config) {
	d := rk.D
	f := d.F
	// Assemble the target charge density.
	clear(rk.rho)
	rk.depositAllRho(rk.rho)
	f.FoldNodeScalar(rk.rho)
	d.ExchangeNodeScalar(rk.rho)
	if rk.rho0 != nil {
		for i, v := range rk.rho0 {
			rk.rho[i] += v
		}
	}
	for p := 0; p < cfg.CleanPasses; p++ {
		errF, _ := f.DivEError(rk.rho, rk.scratch)
		rk.scratch = errF
		f.FillNodeGhost(errF)
		d.ExchangeScalarGhost(errF)
		f.MarderPassE(errF)
		f.UpdateGhostE()
		d.ExchangeGhostE()
	}
	for p := 0; p < cfg.CleanPasses; p++ {
		div, _ := f.DivB(rk.scratch)
		rk.scratch = div
		f.FillCellGhost(div)
		d.ExchangeScalarGhost(div)
		f.MarderPassB(div)
		f.UpdateGhostB()
		d.ExchangeGhostB()
	}
}

// depositAllRho adds every species' charge density into dst.
func (rk *Rank) depositAllRho(dst []float32) {
	for i, sp := range rk.Species {
		_ = i
		push.DepositRho(rk.D.G, sp.Buf, sp.Q, dst)
	}
}

// Background returns the rank's static neutralizing charge density, or
// nil when NeutralizingBackground is off.
func (rk *Rank) Background() []float32 { return rk.rho0 }

// --- Global diagnostics (call between steps only) ---

// Energy gathers the global energy sample.
func (s *Simulation) Energy() diag.EnergySample {
	sample := diag.EnergySample{
		Step:    s.step,
		Time:    s.time,
		Kinetic: make([]float64, len(s.Cfg.Species)),
	}
	for _, rk := range s.Ranks {
		sample.EField += rk.D.F.EnergyE()
		sample.BField += rk.D.F.EnergyB()
		for i, sp := range rk.Species {
			sample.Kinetic[i] += sp.KineticEnergy()
		}
		_, dbe := rk.D.F.DivB(rk.scratch)
		if dbe > sample.DivBError {
			sample.DivBError = dbe
		}
	}
	sample.Total = sample.EField + sample.BField
	for _, k := range sample.Kinetic {
		sample.Total += k
	}
	return sample
}

// TotalParticles returns the global particle count.
func (s *Simulation) TotalParticles() int {
	n := 0
	for _, rk := range s.Ranks {
		for _, sp := range rk.Species {
			n += sp.Buf.N()
		}
	}
	return n
}

// PerRankParticles returns each rank's resident particle count (all
// species), in rank order — the load balancer's observability surface.
func (s *Simulation) PerRankParticles() []int {
	out := make([]int, len(s.Ranks))
	for r, rk := range s.Ranks {
		for _, sp := range rk.Species {
			out[r] += sp.Buf.N()
		}
	}
	return out
}

// ImbalanceRatio returns the max/mean of per-rank cumulative push
// seconds — the measured critical-path imbalance (1 for a single rank
// or before any pushing). Decisions use particle counts; this is the
// observable the counts stand in for.
func (s *Simulation) ImbalanceRatio() float64 {
	secs := make([]float64, len(s.Ranks))
	for r, rk := range s.Ranks {
		secs[r] = rk.Perf.Elapsed(perf.Push).Seconds()
	}
	return balance.MaxOverMean(secs)
}

// CutsX returns the current x-plane cuts (a copy): feed it back through
// Config.CutsX to rebuild this exact geometry, e.g. when resuming a
// rebalanced checkpoint bit-exactly.
func (s *Simulation) CutsX() []int {
	return append([]int(nil), s.Ranks[0].D.Cfg.Layout.CX...)
}

// Flops returns the global inner-loop flop count so far.
func (s *Simulation) Flops() int64 {
	var n int64
	for _, rk := range s.Ranks {
		for _, k := range rk.Kernels {
			n += k.Flops()
		}
	}
	return n
}

// LostEnergy returns the kinetic energy carried away by particles
// absorbed at boundaries since the start (or the last ResetStats),
// closing the energy budget of bounded runs.
func (s *Simulation) LostEnergy() float64 {
	var e float64
	for _, rk := range s.Ranks {
		for _, k := range rk.Kernels {
			e += k.ELost
		}
	}
	return e
}

// PushedParticles returns the global count of particle advances so far.
func (s *Simulation) PushedParticles() int64 {
	var n int64
	for _, rk := range s.Ranks {
		for _, k := range rk.Kernels {
			n += k.NPushed
		}
	}
	return n
}

// PerfBreakdown merges all ranks' kernel timings.
func (s *Simulation) PerfBreakdown() perf.Breakdown {
	var b perf.Breakdown
	for _, rk := range s.Ranks {
		b.Merge(&rk.Perf)
	}
	return b
}

// SortPasses returns the cumulative per-pass breakdown of the sort
// section (count / merge / scatter wall time) summed over all ranks —
// the Amdahl observability of the counting sort's parallelization.
// Each call drains the rank workspaces into the simulation's running
// total, so it composes with periodic polling.
func (s *Simulation) SortPasses() psort.Passes {
	for _, rk := range s.Ranks {
		s.sortPasses.Merge(rk.sortWS.TakePasses())
	}
	return s.sortPasses
}

// CommBytes returns the total payload bytes exchanged.
func (s *Simulation) CommBytes() int64 {
	var n int64
	for _, rk := range s.Ranks {
		n += rk.D.CommBytes
	}
	return n
}

// CommLinks returns every rank's per-link transport counters,
// concatenated in rank order (empty when the transport keeps none or
// no traffic flowed).
func (s *Simulation) CommLinks() []perf.CommLinkStat {
	var out []perf.CommLinkStat
	for _, rk := range s.Ranks {
		if st := rk.D.Comm.Stats(); st != nil {
			out = append(out, st.Snapshot()...)
		}
	}
	return out
}

// CommTraffic returns the sent traffic summed over ranks, broken down
// by exchange class (ghost planes, current folds, particle migration).
func (s *Simulation) CommTraffic() []domain.ClassStat {
	var bytes, msgs [domain.NumCommClasses]int64
	for _, rk := range s.Ranks {
		for c := 0; c < int(domain.NumCommClasses); c++ {
			bytes[c] += rk.D.ClassBytes[c]
			msgs[c] += rk.D.ClassMsgs[c]
		}
	}
	out := make([]domain.ClassStat, 0, domain.NumCommClasses)
	for c := domain.CommClass(0); c < domain.NumCommClasses; c++ {
		if msgs[c] == 0 {
			continue
		}
		out = append(out, domain.ClassStat{Class: c.String(), Bytes: bytes[c], Msgs: msgs[c]})
	}
	return out
}

// RankAt returns the rank whose tile contains global x (quasi-1D
// helper) together with the local x-node index of that plane.
func (s *Simulation) RankAt(xGlobal float64) (*Rank, int, error) {
	for _, rk := range s.Ranks {
		g := rk.D.G
		lx := float64(g.NX) * g.DX
		if xGlobal >= g.X0 && xGlobal < g.X0+lx {
			ix := 1 + int((xGlobal-g.X0)/g.DX)
			return rk, ix, nil
		}
	}
	return nil, 0, fmt.Errorf("core: x=%g outside the global domain", xGlobal)
}

// PoyntingSplit measures forward/backward flux through the global
// x-plane (between steps).
func (s *Simulation) PoyntingSplit(xGlobal float64) (fw, bw float64, err error) {
	rk, ix, err := s.RankAt(xGlobal)
	if err != nil {
		return 0, 0, err
	}
	fw, bw = diag.PoyntingSplit(rk.D.F, ix)
	return fw, bw, nil
}

// DistUx accumulates the global x-momentum distribution of one species
// over a global x window.
func (s *Simulation) DistUx(speciesIdx int, xmin, xmax, umin, umax float64, bins int) []float64 {
	total := make([]float64, bins)
	for _, rk := range s.Ranks {
		h := diag.DistUx(rk.D.G, rk.Species[speciesIdx].Buf, xmin, xmax, umin, umax, bins)
		for i, v := range h {
			total[i] += v
		}
	}
	return total
}
