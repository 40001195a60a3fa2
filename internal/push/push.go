// Package push implements VPIC's particle inner loop: the relativistic
// Boris push with precomputed per-voxel field interpolators, the
// charge-conserving (Villasenor–Buneman) current scatter into per-cell
// accumulators, and the `move_p` machinery that finishes the minority of
// particles whose step crosses cell faces — splitting the trajectory at
// each face and depositing the per-segment current so that the discrete
// continuity equation ∂ρ/∂t + ∇·J = 0 holds exactly.
//
// This is the kernel whose sustained rate the paper reports as
// 0.488 Pflop/s (s.p.) on Roadrunner's Cell SPEs. The flop accounting
// below (FlopsPerPush, FlopsPerSegment) counts every single-precision
// add/sub/mul as one flop and a divide or square root as one flop — the
// convention of the paper's community — so measured particles/s convert
// directly into a flop rate.
//
// The loop is bandwidth-bound, not flop-bound, so the sweep exploits the
// voxel order the periodic sort maintains: consecutive particles sharing
// a voxel form a "run", and the run's 72-byte interpolator is loaded
// once and its in-cell current accumulated in a register-resident
// accum.Cell that is loaded at run start and stored at run end.
//
// Since the AoSoA layout change, the sweep comes in two selectable
// shapes over the same particle.Block storage:
//
//   - The wide-lane kernel (Kernel.Lanes = particle.Lanes, the default)
//     processes one 8-lane block per iteration, mirroring the paper's
//     SPE quadword kernel: a straight-line, branch-free lane loop
//     computes every lane's momentum update and displacement into
//     fixed-size stack arrays and derives a per-block crosser bitmask
//     from the offset magnitudes with integer arithmetic (no compares-
//     and-branches); a second lane loop then scatters the common
//     in-cell lanes into the run's register cell in ascending lane
//     order, and only lanes flagged in the bitmask are deferred to the
//     mover walk.
//   - The scalar kernel (Kernel.Lanes = 1) is the pre-lane fused sweep,
//     one particle per iteration, kept as the selectable oracle
//     (cmd/vpic -lanes=1).
//
// Both shapes perform the identical floating-point operations in the
// identical per-particle order, and the lane kernel's deferred scatter
// preserves the scalar path's ascending-index accumulation chain into
// the run cell, so their outputs are bitwise identical — particles,
// movers, accumulators and counters — for any buffer, sorted or not
// (see the lane-equivalence property tests). The lane kernel wins by
// amortizing address generation over 8 lanes, eliminating the
// per-particle run-detection and crosser branches, and letting the
// out-of-order core overlap the 8 independent rsqrt/divide chains of a
// block — worth ~10% over the scalar shape under gc, which emits no
// SIMD; the layout exists so a vectorizing backend can take the rest
// (EXPERIMENTS.md P3).
//
// The kernel exposes two execution styles. AdvanceP is the serial path:
// one sweep over the buffer depositing into the kernel's accumulator.
// AdvanceBlock/FinishBlocks is the pipelined path mirroring the paper's
// SPE decomposition: contiguous particle ranges are pushed concurrently,
// each scattering into a private accumulator and then walking its own
// face-crossing particles (move_p) in descending index order. A walk
// that ends in a removal (Absorb, Migrate, the segment bound) or a draw
// from a shared reflux stream leaves a Pending record; FinishBlocks
// applies them serially in globally descending index order — the order
// the serial path uses — so particles, outgoing buffers and reflux draws
// are bitwise identical to AdvanceP for any worker count. (The ELost
// tally alone is a float64 sum of per-block partial sums, so it matches
// the serial chain to rounding, not bitwise.)
package push

import (
	"math"

	"govpic/internal/accum"
	"govpic/internal/grid"
	"govpic/internal/interp"
	"govpic/internal/particle"
)

// Flop accounting for the optimized kernel (see advance loop; counts
// audited against the code — identical for the scalar and lane shapes):
//
//	E interpolation             3 × (3 mul + 3 add + 1 mul)  = 21
//	cB interpolation            3 × (1 mul + 1 add)          =  6
//	first half kick             3 add                        =  3
//	1/γ at midpoint             3 mul + 3 add + 1 sqrt + 1 div = 8
//	Boris t vector              1 mul + 3 mul                =  4
//	t², s = 2/(1+t²)            3 mul + 2 add + 1 add + 1 div = 7
//	u' = u + u×t                6 mul + 6 add/sub            = 12
//	u += s·(u'×t)               9 mul + 6 add/sub            = 15
//	second half kick            3 add                        =  3
//	1/γ after kick              3 mul + 3 add + 1 sqrt + 1 div = 8
//	displacement (u·giδ)        6 mul                        =  6
//	new offsets                 3 add                        =  3
//	in-cell current scatter     qw 1 mul; h 3 mul; mid 3 add;
//	                            v5 3 mul; 3 × (1 mul + 4 add
//	                            + 6 mul + 8 add)             = 67
//	                                                   total = 163
const (
	// FlopsPerPush is the single-precision flop count of the in-cell fast
	// path per particle per step.
	FlopsPerPush = 163
	// FlopsPerSegment is the additional cost of one move_p trajectory
	// segment (fraction search + segment scatter).
	FlopsPerSegment = 90
)

// Data-motion model of the particle step (minimum cache traffic; the
// "PIC moves more data per flop" argument of the paper, made concrete).
// Under the AoSoA layout particle state streams at block granularity:
// a sweep over a lane-aligned range moves whole 256-byte blocks, which
// is the same 32 B read + 32 B write per particle as the old AoS records
// whenever blocks are full — a partially filled tail block still moves
// all particle.BlockBytes, a ≤ (Lanes−1)/n relative overhead that the
// model ignores. The fused sweep amortizes interpolator and accumulator
// traffic over voxel runs, so those bytes are counted per run, not per
// particle:
const (
	// BytesPerPush is the per-particle data motion of the UNFUSED fast
	// path: a 32-byte particle read + write, one 72-byte interpolator
	// read and a 48-byte accumulator read-modify-write per particle.
	// Kept as the pre-fusion baseline of the memory-traffic model.
	BytesPerPush = particle.ParticleBytes + particle.ParticleBytes + 72 + 2*accum.CellBytes
	// BytesPerParticle is the irreducible per-particle traffic of the
	// fused sweep: the 32-byte particle read and write (8 lanes of a
	// 256-byte block amortize to the same figure).
	BytesPerParticle = particle.ParticleBytes + particle.ParticleBytes
	// BytesPerRun is the per-voxel-run traffic of the fused sweep: one
	// 72-byte interpolator load plus one accumulator cell load and store.
	// A sorted buffer with ppc particles per cell pays this once per ppc
	// particles; an adversarially unsorted buffer degenerates to one run
	// per particle, i.e. exactly BytesPerPush.
	BytesPerRun = 72 + 2*accum.CellBytes
	// BytesPerSegment is the extra traffic of one move_p segment: the
	// traversed cell's accumulator read-modify-write.
	BytesPerSegment = 2 * accum.CellBytes
)

// Action selects what happens to a particle crossing one local domain
// face.
type Action uint8

const (
	// Wrap re-enters the particle on the opposite side of the local grid
	// (single-rank periodic axis).
	Wrap Action = iota
	// Reflect specularly reflects the particle (momentum and remaining
	// displacement flip along the face normal).
	Reflect
	// Absorb removes the particle from the simulation.
	Absorb
	// Migrate hands the particle to the domain layer: it is removed
	// locally and appended to the face's outgoing buffer with its
	// remaining displacement.
	Migrate
)

// Outgoing is a particle mid-move that crossed a Migrate face. Voxel
// still holds the sender's boundary cell; the receiving rank remaps it
// to its own entry cell and finishes the move. The particle travels in
// gathered AoS form — the AoSoA block layout is a local storage choice
// and never appears on the wire.
type Outgoing struct {
	P                   particle.Particle
	DispX, DispY, DispZ float32
}

// OutgoingWireBytes is one Outgoing's wire size: the 32-byte particle
// plus the three remaining-displacement words.
const OutgoingWireBytes = 44

// OutgoingBatch is the form in which a face's migrating particles
// travel between ranks — a named type so transports can recognize and
// size it.
type OutgoingBatch []Outgoing

// PayloadBytes sizes the batch for transport accounting.
func (b OutgoingBatch) PayloadBytes() int { return OutgoingWireBytes * len(b) }

// Pending is a mover whose walk ended on an order-dependent action,
// left for FinishBlocks to apply: Act is Absorb (also used for a walk
// that hit the segment bound), Migrate or the reflux sentinel. The
// embedded Outgoing holds the particle as the walk left it and, for
// Migrate, its remaining displacement.
type Pending struct {
	Outgoing
	Idx  int32
	Act  Action
	Face uint8
}

// BlockState holds one pipeline block's private push state: the movers
// recorded during the concurrent phase, the pending records their walks
// left, and the statistics counters of everything the block pushed.
// Kernel totals are the sum over blocks (MergeStats), so per-block
// counters add up to exactly the serial values.
type BlockState struct {
	Movers  []particle.Mover
	Pending []Pending
	NMoved  int64
	NSeg    int64
	NLost   int64
	NPushed int64
	NRuns   int64 // voxel runs swept (the fused path's traffic unit)
	ELost   float64
}

// Reset clears the movers, pending records and counters, keeping capacity.
func (b *BlockState) Reset() {
	b.Movers, b.Pending = b.Movers[:0], b.Pending[:0]
	b.NMoved, b.NSeg, b.NLost, b.NPushed, b.NRuns, b.ELost = 0, 0, 0, 0, 0, 0
}

// Kernel advances one species' particles on one rank's domain.
type Kernel struct {
	G   *grid.Grid
	IP  *interp.Table
	Acc *accum.Array

	// Lanes selects the sweep shape: particle.Lanes (the default) runs
	// the wide-lane block kernel, 1 the scalar oracle. Both produce
	// bitwise-identical results; see the package comment.
	Lanes int

	// Asm runs the wide-lane sweep through the hand-written AVX2 block
	// kernel (amd64 only; see ResolveKernel/AsmAvailable). It is
	// bitwise identical to the Go lane kernel, so flipping it is a
	// pure performance ablation. Ignored when Lanes == 1.
	Asm bool

	// Per-face boundary actions, indexed like field.Face
	// (XLo,XHi,YLo,YHi,ZLo,ZHi).
	Bound [6]Action
	// Out collects migrating particles per face; the domain layer drains
	// it each step. Migrations are always applied serially in descending
	// index order (AdvanceP and FinishBlocks alike), so these buffers
	// fill in the same deterministic order on every path.
	Out [6][]Outgoing
	// reflux holds per-face re-emission parameters when EnableReflux has
	// switched a face to a thermally refluxing wall.
	reflux [6]*RefluxParams

	qdt2mc  float32 // (Q/M)·dt/2
	q       float32 // species charge (e units), for deposition
	cdtdx2  float32 // 2·dt/DX: offset displacement per unit velocity
	cdtdy2  float32
	cdtdz2  float32
	mass    float64    // species mass (me units), for energy accounting
	maxSeg  int        // safety bound on segments per particle per step
	serial  BlockState // reusable state for the serial AdvanceP path
	NMoved  int64      // particles needing move_p (statistics)
	NSeg    int64      // total segments processed
	NLost   int64      // particles absorbed at boundaries
	NPushed int64      // total particles advanced
	NRuns   int64      // total voxel runs swept
	ELost   float64    // kinetic energy removed with absorbed particles

	trafficTaken int64 // TakeTrafficBytes watermark
}

// NewKernel builds a push kernel. q and m are the species charge and
// mass in units of e and me; dt is the time step in code units. The
// sweep shape defaults to the wide-lane kernel (Lanes = particle.Lanes).
func NewKernel(g *grid.Grid, ip *interp.Table, acc *accum.Array, q, m, dt float64) *Kernel {
	return &Kernel{
		G: g, IP: ip, Acc: acc,
		Lanes:  particle.Lanes,
		qdt2mc: float32(q / m * dt / 2),
		q:      float32(q),
		mass:   m,
		cdtdx2: float32(2 * dt / g.DX),
		cdtdy2: float32(2 * dt / g.DY),
		cdtdz2: float32(2 * dt / g.DZ),
		maxSeg: 16,
	}
}

// Prealloc pre-sizes the kernel's reusable hot-path buffers — the serial
// mover and pending lists and the per-face outgoing buffers — so a
// steady-state step performs no allocations. nMovers bounds the expected
// face-crossers of one step and nOut the expected emigrants per face
// (and pending records); all grow on demand if exceeded.
func (k *Kernel) Prealloc(nMovers, nOut int) {
	if cap(k.serial.Movers) < nMovers {
		k.serial.Movers = make([]particle.Mover, 0, nMovers)
	}
	if cap(k.serial.Pending) < nOut {
		k.serial.Pending = make([]Pending, 0, nOut)
	}
	for f := range k.Out {
		if cap(k.Out[f]) < nOut {
			k.Out[f] = make([]Outgoing, 0, nOut)
		}
	}
}

// Flops returns the total single-precision flops performed so far under
// the package's counting convention.
func (k *Kernel) Flops() int64 {
	return k.NPushed*FlopsPerPush + k.NSeg*FlopsPerSegment
}

// TrafficBytes returns the kernel's cumulative data-motion estimate
// under the fused-sweep model: per-particle stream traffic plus per-run
// interpolator/accumulator traffic plus per-segment mover traffic.
func (k *Kernel) TrafficBytes() int64 {
	return k.NPushed*BytesPerParticle + k.NRuns*BytesPerRun + k.NSeg*BytesPerSegment
}

// TakeTrafficBytes returns the data motion accrued since the previous
// call (or since construction/ResetStats) and advances the watermark.
func (k *Kernel) TakeTrafficBytes() int64 {
	t := k.TrafficBytes()
	d := t - k.trafficTaken
	if d < 0 { // counters were reset since the last take
		d = t
	}
	k.trafficTaken = t
	return d
}

// ResetStats zeroes the statistics counters.
func (k *Kernel) ResetStats() {
	k.NMoved, k.NSeg, k.NLost, k.NPushed, k.NRuns, k.ELost = 0, 0, 0, 0, 0, 0
	k.trafficTaken = 0
}

// AdoptFrom carries a retired kernel's run-cumulative state into this
// one — the load balancer rebuilds kernels when a rank's tile is
// reshaped, and the statistics must survive the swap. Bound is set
// separately (the new domain's ParticleActions).
func (k *Kernel) AdoptFrom(o *Kernel) {
	k.NMoved, k.NSeg, k.NLost, k.NPushed, k.NRuns, k.ELost =
		o.NMoved, o.NSeg, o.NLost, o.NPushed, o.NRuns, o.ELost
	k.trafficTaken = o.trafficTaken
	k.reflux = o.reflux
}

// MergeStats folds one block's counters into the kernel totals.
func (k *Kernel) MergeStats(bs *BlockState) {
	k.NMoved += bs.NMoved
	k.NSeg += bs.NSeg
	k.NLost += bs.NLost
	k.NPushed += bs.NPushed
	k.NRuns += bs.NRuns
	k.ELost += bs.ELost
}

// ClearOutgoing drops all buffered migrating particles (the domain
// layer calls this after draining them).
func (k *Kernel) ClearOutgoing() {
	for f := range k.Out {
		k.Out[f] = k.Out[f][:0]
	}
}

// AdvanceP advances every particle in buf by one step: half E kick,
// Boris rotation, half E kick, move with charge-conserving current
// deposition into the accumulator. Particles crossing cell faces are
// finished by the move machinery, honoring the per-face boundary
// actions. The interpolator table must be freshly loaded.
func (k *Kernel) AdvanceP(buf *particle.Buffer) {
	bs := &k.serial
	bs.Reset()
	k.AdvanceBlock(buf, 0, buf.N(), k.Acc, bs)
	k.FinishBlocks(buf, []*BlockState{bs})
}

// AdvanceBlock pushes particles [lo, hi) of buf — one pipeline block —
// scattering in-cell current into acc, then walks the block's face-
// crossing particles (recorded in bs.Movers) through their cell
// crossings in descending index order, depositing into acc. Walks that
// end on an order-dependent action leave a record in bs.Pending instead
// of acting. It never reorders the buffer, reads only shared immutable
// state (interpolators, grid, face actions), and writes only lanes
// lo..hi-1, acc and bs, so disjoint ranges with private acc/bs are safe
// to run concurrently (lanes are distinct words even when two ranges
// share a particle.Block). Call FinishBlocks afterwards to apply the
// pending records.
func (k *Kernel) AdvanceBlock(buf *particle.Buffer, lo, hi int, acc *accum.Array, bs *BlockState) {
	switch {
	case k.Lanes > 1 && k.Asm:
		k.advanceRangeLanesAsm(buf, lo, hi, acc, bs)
	case k.Lanes > 1:
		k.advanceRangeLanes(buf, lo, hi, acc, bs)
	default:
		k.advanceRange(buf, lo, hi, acc, bs)
	}
	k.walkMovers(buf, acc, bs)
}

// walkMovers walks every recorded mover of bs in descending index order
// (see walk), depositing into a.
func (k *Kernel) walkMovers(buf *particle.Buffer, a *accum.Array, bs *BlockState) {
	bs.NMoved += int64(len(bs.Movers))
	for m := len(bs.Movers) - 1; m >= 0; m-- {
		mv := bs.Movers[m]
		k.walk(buf, int(mv.Idx), mv.DispX, mv.DispY, mv.DispZ, a, bs)
	}
}

// FinishBlocks applies the pending records left by AdvanceBlock: blocks
// last to first and each block's records in order, i.e. globally
// descending particle index — the sequence of removals, outgoing
// appends and reflux draws the serial AdvanceP makes, so swap-removals
// never disturb a particle still to be acted on and the resulting state
// is bitwise identical to the serial path. The block counters are then
// merged into the kernel totals.
func (k *Kernel) FinishBlocks(buf *particle.Buffer, blocks []*BlockState) {
	for b := len(blocks) - 1; b >= 0; b-- {
		for i := range blocks[b].Pending {
			p := &blocks[b].Pending[i]
			switch p.Act {
			case refluxAction:
				// Thermal wall: re-emit at the wall with flux-weighted
				// inward momentum; the walk already spent the rest of the
				// step.
				axis, dir := int(p.Face)/2, int(p.Face)%2*2-1
				pt := p.P
				pt.Ux, pt.Uy, pt.Uz = drawReflux(k.reflux[p.Face], axis, float32(-dir))
				buf.Set(int(p.Idx), pt)
			case Migrate:
				k.Out[p.Face] = append(k.Out[p.Face], p.Outgoing)
				buf.RemoveSwap(int(p.Idx))
			default: // Absorb
				buf.RemoveSwap(int(p.Idx))
			}
		}
	}
	for _, bs := range blocks {
		k.MergeStats(bs)
	}
}

// advanceRange is the scalar (lanes=1) momentum-update + in-cell-
// deposition sweep over particles [lo, hi), the oracle for the lane
// kernel below. Face-crossing particles are appended to bs.Movers (in
// ascending index order) for the caller to finish.
//
// The sweep is fused over voxel runs: for each maximal group of
// consecutive particles sharing a voxel it loads the 72-byte
// interpolator and the 48-byte accumulator cell once, accumulates the
// run's in-cell current in the register-resident copy, and stores the
// cell back at run end. Loading the cell (rather than starting from
// zero) keeps the per-slot addition chains exactly those of the
// per-particle read-modify-write kernel, so the result is bitwise
// identical to AdvancePUnfused for any particle order — sorted buffers
// merely make the runs long enough to pay off.
func (k *Kernel) advanceRange(buf *particle.Buffer, lo, hi int, a *accum.Array, bs *BlockState) {
	blk := buf.Blk
	ip := k.IP.C
	ac := a.A
	qdt2mc := k.qdt2mc
	cdx, cdy, cdz := k.cdtdx2, k.cdtdy2, k.cdtdz2
	bs.NPushed += int64(hi - lo)

	runV := int32(-1)    // voxel of the current run (-1: none yet)
	var cc interp.Coeffs // hoisted interpolator of the run's cell
	var rc accum.Cell    // register-resident accumulator of the run's cell

	for i := lo; i < hi; i++ {
		b := &blk[i>>particle.LaneShift]
		l := i & particle.LaneMask
		dx, dy, dz := b.Dx[l], b.Dy[l], b.Dz[l]
		if b.Voxel[l] != runV {
			if runV >= 0 {
				ac[runV] = rc
				a.Touch(int(runV))
			}
			runV = b.Voxel[l]
			cc = ip[runV]
			rc = ac[runV]
			bs.NRuns++
		}

		// Interpolate E (21 flops) and apply the first half kick (3).
		hax := qdt2mc * (cc.Ex0 + dy*cc.DExDy + dz*(cc.DExDz+dy*cc.D2ExDyDz))
		hay := qdt2mc * (cc.Ey0 + dz*cc.DEyDz + dx*(cc.DEyDx+dz*cc.D2EyDzDx))
		haz := qdt2mc * (cc.Ez0 + dx*cc.DEzDx + dy*(cc.DEzDy+dx*cc.D2EzDxDy))
		ux := b.Ux[l] + hax
		uy := b.Uy[l] + hay
		uz := b.Uz[l] + haz

		// Interpolate cB (6 flops).
		cbx := cc.CBx0 + dx*cc.DCBxDx
		cby := cc.CBy0 + dy*cc.DCByDy
		cbz := cc.CBz0 + dz*cc.DCBzDz

		// Boris rotation about cB with the exact angle form (8+4+7+12+15).
		gi := rsqrt(1 + (ux*ux + uy*uy + uz*uz))
		f0 := qdt2mc * gi
		tx, ty, tz := f0*cbx, f0*cby, f0*cbz
		t2 := tx*tx + ty*ty + tz*tz
		s := 2 / (1 + t2)
		wx := ux + (uy*tz - uz*ty)
		wy := uy + (uz*tx - ux*tz)
		wz := uz + (ux*ty - uy*tx)
		ux += s * (wy*tz - wz*ty)
		uy += s * (wz*tx - wx*tz)
		uz += s * (wx*ty - wy*tx)

		// Second half kick (3) and final γ (8).
		ux += hax
		uy += hay
		uz += haz
		b.Ux[l], b.Uy[l], b.Uz[l] = ux, uy, uz
		gi = rsqrt(1 + (ux*ux + uy*uy + uz*uz))

		// Displacement in offset units (6).
		ddx := ux * gi * cdx
		ddy := uy * gi * cdy
		ddz := uz * gi * cdz
		nx := dx + ddx
		ny := dy + ddy
		nz := dz + ddz

		if nx <= 1 && nx >= -1 && ny <= 1 && ny >= -1 && nz <= 1 && nz >= -1 {
			// In-cell fast path: scatter the whole-step current (67) into
			// the run's register cell and store the new offsets (3,
			// counted in the displacement sum).
			k.scatterCell(&rc, b.W[l], dx, dy, dz, ddx, ddy, ddz)
			b.Dx[l], b.Dy[l], b.Dz[l] = nx, ny, nz
			continue
		}
		bs.Movers = append(bs.Movers, particle.Mover{DispX: ddx, DispY: ddy, DispZ: ddz, Idx: int32(i)})
	}
	if runV >= 0 {
		ac[runV] = rc
		a.Touch(int(runV))
	}
}

// oneBits is math.Float32bits(1.0); for finite floats |x| > 1 exactly
// when the sign-cleared bit pattern exceeds it, and NaN patterns always
// do — matching the scalar path, which also sends NaN offsets to the
// mover walk.
const oneBits = 0x3f800000

// advanceRangeLanes is the wide-lane sweep over particles [lo, hi): one
// particle.Block per outer iteration, decomposed into voxel spans
// (sorted buffers make most blocks a single 8-lane span of one voxel).
// For each span the momentum update runs as a straight-line lane loop
// with no branches — the in-cell test is folded into an integer crosser
// bitmask — and a second lane loop scatters the in-cell lanes into the
// run's register-resident accumulator cell in ascending lane order,
// which is exactly the scalar sweep's accumulation chain. Lanes flagged
// in the bitmask keep their pre-step offsets and are recorded as movers
// for the caller, again in ascending index order. Every floating-point
// operation, its operands and its order match advanceRange per particle,
// so the two sweeps are bitwise identical; see the package comment.
func (k *Kernel) advanceRangeLanes(buf *particle.Buffer, lo, hi int, a *accum.Array, bs *BlockState) {
	blk := buf.Blk
	ip := k.IP.C
	ac := a.A
	qdt2mc := k.qdt2mc
	q := k.q
	cdx, cdy, cdz := k.cdtdx2, k.cdtdy2, k.cdtdz2
	bs.NPushed += int64(hi - lo)

	runV := int32(-1)    // voxel of the current run (-1: none yet)
	var cc interp.Coeffs // hoisted interpolator of the run's cell

	// The run's accumulator cell, held in twelve named scalars rather
	// than an accum.Cell so nothing takes their address: the scatter is
	// hand-inlined below (the scalar path's scatterCell call forces its
	// register cell back to the stack at every call site), letting the
	// compiler keep the run's current sums in registers for the whole
	// run. The adds execute in the identical per-particle, per-slot
	// order as scatterCell, so the chains — and the results — are still
	// bitwise those of the scalar sweep.
	// (A helper closure would capture these by reference and force them
	// addressable — so the two flush sites below are spelled out.)
	var jx0, jx1, jx2, jx3 float32
	var jy0, jy1, jy2, jy3 float32
	var jz0, jz1, jz2, jz3 float32

	// Per-block lane state handed between the staged lane loops:
	// half-kick fields and interpolated cB from the gather stage,
	// displacements and tentative offsets from the momentum stage.
	// Fixed-size arrays keep every lane access bounds-check free.
	var haxA, hayA, hazA [particle.Lanes]float32
	var cbxA, cbyA, cbzA [particle.Lanes]float32
	var ddxA, ddyA, ddzA [particle.Lanes]float32

	for i := lo; i < hi; {
		base := i &^ particle.LaneMask
		l0 := i - base
		l1 := particle.Lanes
		if base+l1 > hi {
			l1 = hi - base
		}
		if l1 > particle.Lanes {
			l1 = particle.Lanes // unreachable; lets the prover bound the lane loops
		}
		b := &blk[base>>particle.LaneShift]

		for s0 := l0; s0 < l1; {
			// Extend the voxel span [s0, s1) within the block.
			v := b.Voxel[s0]
			s1 := s0 + 1
			for s1 < l1 && b.Voxel[s1] == v {
				s1++
			}
			if s1 > particle.Lanes {
				s1 = particle.Lanes // unreachable; bounds the lane loops for BCE
			}
			if v != runV {
				if runV >= 0 {
					c := &ac[runV]
					c.JX[0], c.JX[1], c.JX[2], c.JX[3] = jx0, jx1, jx2, jx3
					c.JY[0], c.JY[1], c.JY[2], c.JY[3] = jy0, jy1, jy2, jy3
					c.JZ[0], c.JZ[1], c.JZ[2], c.JZ[3] = jz0, jz1, jz2, jz3
					a.Touch(int(runV))
				}
				runV = v
				cc = ip[v]
				c := &ac[v]
				jx0, jx1, jx2, jx3 = c.JX[0], c.JX[1], c.JX[2], c.JX[3]
				jy0, jy1, jy2, jy3 = c.JY[0], c.JY[1], c.JY[2], c.JY[3]
				jz0, jz1, jz2, jz3 = c.JZ[0], c.JZ[1], c.JZ[2], c.JZ[3]
				bs.NRuns++
			}

			// Lane loop 1a: field gather — interpolate E and cB at every
			// lane's offsets. Pure multiply-add work with no divides and
			// no block writes, so it streams at full FP throughput.
			for l := s0; l < s1; l++ {
				dx, dy, dz := b.Dx[l], b.Dy[l], b.Dz[l]

				haxA[l] = qdt2mc * (cc.Ex0 + dy*cc.DExDy + dz*(cc.DExDz+dy*cc.D2ExDyDz))
				hayA[l] = qdt2mc * (cc.Ey0 + dz*cc.DEyDz + dx*(cc.DEyDx+dz*cc.D2EyDzDx))
				hazA[l] = qdt2mc * (cc.Ez0 + dx*cc.DEzDx + dy*(cc.DEzDy+dx*cc.D2EzDxDy))

				cbxA[l] = cc.CBx0 + dx*cc.DCBxDx
				cbyA[l] = cc.CBy0 + dy*cc.DCByDy
				cbzA[l] = cc.CBz0 + dz*cc.DCBzDz
			}

			// Lane loop 1b: both half kicks and the Boris rotation. This
			// is the divide/sqrt-heavy stage; its body is kept minimal so
			// several lanes' rsqrt chains are in flight in the
			// out-of-order core at once instead of one long per-particle
			// dependency chain.
			for l := s0; l < s1; l++ {
				hax, hay, haz := haxA[l], hayA[l], hazA[l]
				ux := b.Ux[l] + hax
				uy := b.Uy[l] + hay
				uz := b.Uz[l] + haz

				gi := rsqrt(1 + (ux*ux + uy*uy + uz*uz))
				f0 := qdt2mc * gi
				tx, ty, tz := f0*cbxA[l], f0*cbyA[l], f0*cbzA[l]
				t2 := tx*tx + ty*ty + tz*tz
				s := 2 / (1 + t2)
				wx := ux + (uy*tz - uz*ty)
				wy := uy + (uz*tx - ux*tz)
				wz := uz + (ux*ty - uy*tx)
				ux += s * (wy*tz - wz*ty)
				uy += s * (wz*tx - wx*tz)
				uz += s * (wx*ty - wy*tx)

				b.Ux[l] = ux + hax
				b.Uy[l] = uy + hay
				b.Uz[l] = uz + haz
			}

			// Lane loop 1c: final 1/γ, displacement and the crosser mask.
			// Reloading the just-stored momenta from the block is an L1
			// hit; what it buys is a second window of independent rsqrt
			// chains.
			var cross uint32
			for l := s0; l < s1; l++ {
				ux, uy, uz := b.Ux[l], b.Uy[l], b.Uz[l]
				gi := rsqrt(1 + (ux*ux + uy*uy + uz*uz))

				ddx := ux * gi * cdx
				ddy := uy * gi * cdy
				ddz := uz * gi * cdz
				nx := b.Dx[l] + ddx
				ny := b.Dy[l] + ddy
				nz := b.Dz[l] + ddz
				ddxA[l], ddyA[l], ddzA[l] = ddx, ddy, ddz

				// Crosser test without compare-and-branch: |x| > 1 iff the
				// sign-cleared bit pattern exceeds oneBits, detected via
				// unsigned-subtraction wraparound (NaN included, matching
				// the scalar path's negated in-cell test).
				ax := math.Float32bits(nx) &^ (1 << 31)
				ay := math.Float32bits(ny) &^ (1 << 31)
				az := math.Float32bits(nz) &^ (1 << 31)
				out := ((oneBits - ax) | (oneBits - ay) | (oneBits - az)) >> 31
				cross |= out << uint(l)
			}

			// Lane loop 2: in-cell scatter in ascending lane order — the
			// scalar accumulation chain, hand-inlined from scatterCell so
			// the run sums never leave registers. The no-crosser case is
			// the hot path and stays branch-free inside the loop; a span
			// with crossers takes the per-lane masked variant below.
			if cross == 0 {
				for l := s0; l < s1; l++ {
					dx, dy, dz := b.Dx[l], b.Dy[l], b.Dz[l]
					qw := q * b.W[l]
					hx, hy, hz := 0.5*ddxA[l], 0.5*ddyA[l], 0.5*ddzA[l]
					mx, my, mz := dx+hx, dy+hy, dz+hz
					v5 := qw * hx * hy * hz * (1.0 / 3.0)

					qh := qw * hx
					jx0 += qh*(1-my)*(1-mz) + v5
					jx1 += qh*(1+my)*(1-mz) - v5
					jx2 += qh*(1-my)*(1+mz) - v5
					jx3 += qh*(1+my)*(1+mz) + v5

					qh = qw * hy
					jy0 += qh*(1-mz)*(1-mx) + v5
					jy1 += qh*(1+mz)*(1-mx) - v5
					jy2 += qh*(1-mz)*(1+mx) - v5
					jy3 += qh*(1+mz)*(1+mx) + v5

					qh = qw * hz
					jz0 += qh*(1-mx)*(1-my) + v5
					jz1 += qh*(1+mx)*(1-my) - v5
					jz2 += qh*(1-mx)*(1+my) - v5
					jz3 += qh*(1+mx)*(1+my) + v5

					b.Dx[l], b.Dy[l], b.Dz[l] = dx+ddxA[l], dy+ddyA[l], dz+ddzA[l]
				}
				s0 = s1
				continue
			}
			for l := s0; l < s1; l++ {
				if cross&(1<<uint(l)) != 0 {
					bs.Movers = append(bs.Movers, particle.Mover{
						DispX: ddxA[l], DispY: ddyA[l], DispZ: ddzA[l], Idx: int32(base + l),
					})
					continue
				}
				dx, dy, dz := b.Dx[l], b.Dy[l], b.Dz[l]
				qw := q * b.W[l]
				hx, hy, hz := 0.5*ddxA[l], 0.5*ddyA[l], 0.5*ddzA[l]
				mx, my, mz := dx+hx, dy+hy, dz+hz
				v5 := qw * hx * hy * hz * (1.0 / 3.0)

				qh := qw * hx
				jx0 += qh*(1-my)*(1-mz) + v5
				jx1 += qh*(1+my)*(1-mz) - v5
				jx2 += qh*(1-my)*(1+mz) - v5
				jx3 += qh*(1+my)*(1+mz) + v5

				qh = qw * hy
				jy0 += qh*(1-mz)*(1-mx) + v5
				jy1 += qh*(1+mz)*(1-mx) - v5
				jy2 += qh*(1-mz)*(1+mx) - v5
				jy3 += qh*(1+mz)*(1+mx) + v5

				qh = qw * hz
				jz0 += qh*(1-mx)*(1-my) + v5
				jz1 += qh*(1+mx)*(1-my) - v5
				jz2 += qh*(1-mx)*(1+my) - v5
				jz3 += qh*(1+mx)*(1+my) + v5

				b.Dx[l], b.Dy[l], b.Dz[l] = dx+ddxA[l], dy+ddyA[l], dz+ddzA[l]
			}
			s0 = s1
		}
		i = base + l1
	}
	if runV >= 0 {
		c := &ac[runV]
		c.JX[0], c.JX[1], c.JX[2], c.JX[3] = jx0, jx1, jx2, jx3
		c.JY[0], c.JY[1], c.JY[2], c.JY[3] = jy0, jy1, jy2, jy3
		c.JZ[0], c.JZ[1], c.JZ[2], c.JZ[3] = jz0, jz1, jz2, jz3
		a.Touch(int(runV))
	}
}

// scatter deposits the charge-conserving current of one in-cell segment
// into cell v of accumulator a, growing a's touched window.
func (k *Kernel) scatter(a *accum.Array, v int, w, dx, dy, dz, ddx, ddy, ddz float32) {
	k.scatterCell(&a.A[v], w, dx, dy, dz, ddx, ddy, ddz)
	a.Touch(v)
}

// scatterCell deposits the charge-conserving current of one in-cell
// segment with half-displacements (hx,hy,hz) = (ddx,ddy,ddz)/2 starting
// from offsets (dx,dy,dz), into the accumulator cell c.
func (k *Kernel) scatterCell(c *accum.Cell, w, dx, dy, dz, ddx, ddy, ddz float32) {
	qw := k.q * w
	hx, hy, hz := 0.5*ddx, 0.5*ddy, 0.5*ddz
	mx, my, mz := dx+hx, dy+hy, dz+hz // midpoint offsets
	v5 := qw * hx * hy * hz * (1.0 / 3.0)

	qh := qw * hx
	c.JX[0] += qh*(1-my)*(1-mz) + v5
	c.JX[1] += qh*(1+my)*(1-mz) - v5
	c.JX[2] += qh*(1-my)*(1+mz) - v5
	c.JX[3] += qh*(1+my)*(1+mz) + v5

	qh = qw * hy
	c.JY[0] += qh*(1-mz)*(1-mx) + v5
	c.JY[1] += qh*(1+mz)*(1-mx) - v5
	c.JY[2] += qh*(1-mz)*(1+mx) - v5
	c.JY[3] += qh*(1+mz)*(1+mx) + v5

	qh = qw * hz
	c.JZ[0] += qh*(1-mx)*(1-my) + v5
	c.JZ[1] += qh*(1+mx)*(1-my) - v5
	c.JZ[2] += qh*(1-mx)*(1+my) - v5
	c.JZ[3] += qh*(1+mx)*(1+my) + v5
}

// walk moves a boundary-crossing particle through its cell crossings:
// it splits the remaining displacement at each cell face, deposits
// per-segment current into a, and handles interior crossings, Wrap and
// Reflect in place. The particle is gathered into a register copy and
// scattered back at the end, unless the walk ends on Absorb, Migrate, a
// reflux wall or the segment bound: then it records a Pending instead.
// Statistics land in bs.
func (k *Kernel) walk(buf *particle.Buffer, i int, ddx, ddy, ddz float32, a *accum.Array, bs *BlockState) {
	g := k.G
	sx, sy, _ := g.Strides()
	strides := [3]int{1, sx, sx * sy}
	n := [3]int{g.NX, g.NY, g.NZ}
	pt := buf.At(i)

	for seg := 0; seg < k.maxSeg; seg++ {
		bs.NSeg++
		// Fraction of the remaining displacement to the first face.
		s := float32(1)
		axis := -1
		dir := 0
		if f, d := faceFraction(pt.Dx, ddx); f < s {
			s, axis, dir = f, 0, d
		}
		if f, d := faceFraction(pt.Dy, ddy); f < s {
			s, axis, dir = f, 1, d
		}
		if f, d := faceFraction(pt.Dz, ddz); f < s {
			s, axis, dir = f, 2, d
		}

		segx, segy, segz := s*ddx, s*ddy, s*ddz
		k.scatter(a, int(pt.Voxel), pt.W, pt.Dx, pt.Dy, pt.Dz, segx, segy, segz)
		pt.Dx += segx
		pt.Dy += segy
		pt.Dz += segz
		ddx -= segx
		ddy -= segy
		ddz -= segz

		if axis < 0 {
			buf.Set(i, pt)
			return // whole displacement consumed inside the cell
		}

		// Snap exactly onto the crossed face and act on it.
		setOffset(&pt, axis, float32(dir))
		ix, iy, iz := g.Unvoxel(int(pt.Voxel))
		coord := [3]int{ix, iy, iz}
		next := coord[axis] + dir
		rem := [3]float32{ddx, ddy, ddz}

		if next >= 1 && next <= n[axis] {
			// Interior crossing: enter the neighbor cell from its far side.
			pt.Voxel += int32(dir * strides[axis])
			setOffset(&pt, axis, float32(-dir))
		} else {
			face := 2*axis + (dir+1)/2
			switch act := k.Bound[face]; act {
			case Wrap:
				pt.Voxel += int32(-dir * (n[axis] - 1) * strides[axis])
				setOffset(&pt, axis, float32(-dir))
			case Reflect:
				flipU(&pt, axis)
				rem[axis] = -rem[axis]
			default:
				if act == Migrate {
					// Hand the particle over already flipped onto the
					// entering side; the receiver only remaps Voxel.
					setOffset(&pt, axis, float32(-dir))
				}
				k.pend(bs, i, pt, rem, act, face)
				return
			}
		}
		ddx, ddy, ddz = rem[0], rem[1], rem[2]
		if ddx == 0 && ddy == 0 && ddz == 0 {
			buf.Set(i, pt)
			return
		}
	}
	// A particle needing more than maxSeg segments indicates dt far above
	// CFL or corrupted state; absorb it rather than corrupt memory.
	k.pend(bs, i, pt, [3]float32{}, Absorb, 0)
}

// pend records a walk's order-dependent end. An absorbed particle's
// loss is tallied here, in the block's walk order.
func (k *Kernel) pend(bs *BlockState, i int, pt particle.Particle, rem [3]float32, act Action, face int) {
	if act == Absorb {
		bs.NLost++
		bs.ELost += k.kinetic(&pt)
	}
	bs.Pending = append(bs.Pending, Pending{
		Outgoing: Outgoing{P: pt, DispX: rem[0], DispY: rem[1], DispZ: rem[2]},
		Idx:      int32(i), Act: act, Face: uint8(face),
	})
}

// kinetic returns w·m·(γ−1) of one particle in double precision.
func (k *Kernel) kinetic(pt *particle.Particle) float64 {
	u2 := float64(pt.Ux)*float64(pt.Ux) + float64(pt.Uy)*float64(pt.Uy) + float64(pt.Uz)*float64(pt.Uz)
	g := math.Sqrt(1 + u2)
	return float64(pt.W) * k.mass * u2 / (g + 1)
}

// FinishMove continues a migrated-in particle: the caller has already
// remapped Voxel to the local entry cell. Only the move (deposition)
// remains; the momentum kick happened on the sending rank. Deposition
// goes to the kernel's own accumulator, which on the pipelined path
// already holds the reduced block sum by exchange time.
func (k *Kernel) FinishMove(buf *particle.Buffer, in Outgoing) {
	buf.Append(in.P)
	i := buf.N() - 1
	if in.DispX != 0 || in.DispY != 0 || in.DispZ != 0 {
		bs := &k.serial
		bs.Reset()
		k.walk(buf, i, in.DispX, in.DispY, in.DispZ, k.Acc, bs)
		k.FinishBlocks(buf, []*BlockState{bs})
	}
}

// faceFraction returns the fraction of displacement dd that brings an
// offset d to ±1, and the face direction, or (+inf-ish, 0) when the face
// is not reached.
func faceFraction(d, dd float32) (float32, int) {
	switch {
	case dd > 0:
		if f := (1 - d) / dd; f < 1 {
			return max32(f, 0), +1
		}
	case dd < 0:
		if f := (-1 - d) / dd; f < 1 {
			return max32(f, 0), -1
		}
	}
	return 2, 0
}

func max32(a, b float32) float32 {
	if a > b {
		return a
	}
	return b
}

func setOffset(p *particle.Particle, axis int, v float32) {
	switch axis {
	case 0:
		p.Dx = v
	case 1:
		p.Dy = v
	default:
		p.Dz = v
	}
}

func flipU(p *particle.Particle, axis int) {
	switch axis {
	case 0:
		p.Ux = -p.Ux
	case 1:
		p.Uy = -p.Uy
	default:
		p.Uz = -p.Uz
	}
}

// rsqrt is 1/√x with the square root rounded to float32 before the
// divide: the compiler recognizes float32(math.Sqrt(float64(x))) and
// emits a single-precision hardware sqrt, so the whole thing is one
// SQRTSS + DIVSS — roughly half the divider latency and throughput cost
// of the double-precision pair. Every kernel shape shares this helper,
// so they stay bitwise identical to each other.
func rsqrt(x float32) float32 {
	return 1 / float32(math.Sqrt(float64(x)))
}
