//go:build !purego

package push

import (
	"math"
	"unsafe"

	"govpic/internal/accum"
	"govpic/internal/interp"
	"govpic/internal/particle"
)

// The assembly hardcodes the particle.Block, interp.Coeffs, laneConsts
// and laneVecs layouts; fail the build if any of them moves. (The
// kernel uses unaligned vector loads and stores throughout, so no
// allocation alignment beyond Go's natural 8-byte heap alignment is
// required — that is the whole alignment contract.)
var _ = [1]struct{}{}[unsafe.Offsetof(particle.Block{}.Dy)-32]
var _ = [1]struct{}{}[unsafe.Offsetof(particle.Block{}.Dz)-64]
var _ = [1]struct{}{}[unsafe.Offsetof(particle.Block{}.Voxel)-96]
var _ = [1]struct{}{}[unsafe.Offsetof(particle.Block{}.Ux)-128]
var _ = [1]struct{}{}[unsafe.Offsetof(particle.Block{}.Uy)-160]
var _ = [1]struct{}{}[unsafe.Offsetof(particle.Block{}.Uz)-192]
var _ = [1]struct{}{}[unsafe.Offsetof(particle.Block{}.W)-224]
var _ = [1]struct{}{}[unsafe.Sizeof(particle.Block{})-256]
var _ = [1]struct{}{}[unsafe.Offsetof(interp.Coeffs{}.Ey0)-16]
var _ = [1]struct{}{}[unsafe.Offsetof(interp.Coeffs{}.Ez0)-32]
var _ = [1]struct{}{}[unsafe.Offsetof(interp.Coeffs{}.CBx0)-48]
var _ = [1]struct{}{}[unsafe.Offsetof(interp.Coeffs{}.CBy0)-56]
var _ = [1]struct{}{}[unsafe.Offsetof(interp.Coeffs{}.CBz0)-64]
var _ = [1]struct{}{}[unsafe.Sizeof(interp.Coeffs{})-72]
var _ = [1]struct{}{}[unsafe.Offsetof(laneConsts{}.cdz)-16]
var _ = [1]struct{}{}[unsafe.Offsetof(laneVecs{}.ddy)-32]
var _ = [1]struct{}{}[unsafe.Offsetof(laneVecs{}.c)-96]
var _ = [1]struct{}{}[unsafe.Sizeof(laneVecs{})-480]

// laneConsts hands the kernel's per-species scalars to the block
// routine. Field offsets are hardcoded in push_avx2_amd64.s.
type laneConsts struct {
	qdt2mc float32 // +0
	q      float32 // +4
	cdx    float32 // +8
	cdy    float32 // +12
	cdz    float32 // +16
}

// laneVecs is the block routine's per-block output: the lane
// displacements (for mover records) and the twelve current
// contributions per lane (accumulated by the driver in ascending lane
// order, preserving the scalar sweep's addition chains). The assembly
// writes every 32-byte slot full width, so lanes outside the range
// hold garbage; offsets are hardcoded in push_avx2_amd64.s.
type laneVecs struct {
	ddx, ddy, ddz [particle.Lanes]float32
	c             [12][particle.Lanes]float32 // JX0..3, JY0..3, JZ0..3
}

// maxGatherVoxels bounds the interpolator table the block routine can
// address: its gather index voxel·9 is a signed 32-bit lane.
const maxGatherVoxels = math.MaxInt32 / 9

// advanceBlockAVX2 pushes the lanes [l0, l1) of block b, each against
// its own voxel's interpolator gathered from the table starting at ip:
// momentum update and masked in-place store of the new momenta and
// (non-crossing) offsets, with displacements and per-lane current
// contributions written to out. The return value has bit l set when
// in-range lane l crossed a cell face. Every in-range lane's voxel
// must index the table; lanes outside the range are never gathered.
// Bitwise identical per lane to the Go staged lane loops — see
// push_avx2_amd64.s for the contract.
//
//go:noescape
func advanceBlockAVX2(b *particle.Block, ip *interp.Coeffs, con *laneConsts, out *laneVecs, l0, l1 int) uint32

// advanceRangeLanesAsm is the dispatch target when Kernel.Asm is set:
// one advanceBlockAVX2 call per block, whatever mix of voxels its
// lanes hold, then a lane loop that walks the run cell through the
// block's voxels and adds the precomputed contributions. The run cell
// lives in twelve named scalars, flushed and reloaded on every voxel
// change exactly where advanceRangeLanes does it, contributions are
// added in ascending lane order and movers recorded in ascending index
// order, so the results — particles, movers, accumulators, counters —
// stay bitwise identical to both Go shapes.
func (k *Kernel) advanceRangeLanesAsm(buf *particle.Buffer, lo, hi int, a *accum.Array, bs *BlockState) {
	blk := buf.Blk
	ip := k.IP.C
	if len(ip) > maxGatherVoxels {
		// The gather index would overflow: refuse the asm kernel for this
		// table and run its bitwise-identical Go counterpart.
		k.advanceRangeLanes(buf, lo, hi, a, bs)
		return
	}
	ac := a.A
	con := laneConsts{qdt2mc: k.qdt2mc, q: k.q, cdx: k.cdtdx2, cdy: k.cdtdy2, cdz: k.cdtdz2}
	var out laneVecs
	bs.NPushed += int64(hi - lo)

	runV := int32(-1) // voxel of the current run (-1: none yet)

	var jx0, jx1, jx2, jx3 float32
	var jy0, jy1, jy2, jy3 float32
	var jz0, jz1, jz2, jz3 float32

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

		// A voxel outside the table panics here, in Go, before the
		// assembly could gather from wild memory.
		for l := l0; l < l1; l++ {
			_ = ip[b.Voxel[l]]
		}
		cross := advanceBlockAVX2(b, &ip[0], &con, &out, l0, l1)

		for l := l0; l < l1; l++ {
			if v := b.Voxel[l]; v != runV {
				if runV >= 0 {
					c := &ac[runV]
					c.JX[0], c.JX[1], c.JX[2], c.JX[3] = jx0, jx1, jx2, jx3
					c.JY[0], c.JY[1], c.JY[2], c.JY[3] = jy0, jy1, jy2, jy3
					c.JZ[0], c.JZ[1], c.JZ[2], c.JZ[3] = jz0, jz1, jz2, jz3
					a.Touch(int(runV))
				}
				runV = v
				c := &ac[v]
				jx0, jx1, jx2, jx3 = c.JX[0], c.JX[1], c.JX[2], c.JX[3]
				jy0, jy1, jy2, jy3 = c.JY[0], c.JY[1], c.JY[2], c.JY[3]
				jz0, jz1, jz2, jz3 = c.JZ[0], c.JZ[1], c.JZ[2], c.JZ[3]
				bs.NRuns++
			}
			if cross&(1<<uint(l)) != 0 {
				bs.Movers = append(bs.Movers, particle.Mover{
					DispX: out.ddx[l], DispY: out.ddy[l], DispZ: out.ddz[l], Idx: int32(base + l),
				})
				continue
			}
			jx0 += out.c[0][l]
			jx1 += out.c[1][l]
			jx2 += out.c[2][l]
			jx3 += out.c[3][l]
			jy0 += out.c[4][l]
			jy1 += out.c[5][l]
			jy2 += out.c[6][l]
			jy3 += out.c[7][l]
			jz0 += out.c[8][l]
			jz1 += out.c[9][l]
			jz2 += out.c[10][l]
			jz3 += out.c[11][l]
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
