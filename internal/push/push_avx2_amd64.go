//go:build !purego

package push

import (
	"math"
	"math/bits"
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
var _ = [1]struct{}{}[unsafe.Offsetof(laneVecs{}.sink)-480]
var _ = [1]struct{}{}[unsafe.Sizeof(laneVecs{})-528]

// laneConsts hands the kernel's per-species scalars to the block
// routine. Field offsets are hardcoded in push_avx2_amd64.s.
type laneConsts struct {
	qdt2mc float32 // +0
	q      float32 // +4
	cdx    float32 // +8
	cdy    float32 // +12
	cdz    float32 // +16
}

// laneVecs is the block routine's per-block scratch: the lane
// displacements (for mover records), the twelve current contributions
// per lane, spilled for the routine's own accumulation stage, and a
// sink cell that absorbs the adds of lanes that must not deposit. The
// assembly writes every 32-byte slot full width, so lanes outside the
// range hold garbage; offsets are hardcoded in push_avx2_amd64.s.
type laneVecs struct {
	ddx, ddy, ddz [particle.Lanes]float32
	c             [12][particle.Lanes]float32 // JX0..3, JY0..3, JZ0..3
	sink          accum.Cell
}

// maxGatherVoxels bounds the interpolator table the block routine can
// address: its gather index voxel·9 is a signed 32-bit lane.
const maxGatherVoxels = math.MaxInt32 / 9

// advanceBlockAVX2 pushes the lanes [l0, l1) of block b, each against
// its own voxel's interpolator gathered from the table starting at ip:
// momentum update and masked in-place store of the new momenta and
// (non-crossing) offsets, displacements written to out, and each
// in-range non-crossing lane's current added into its cell of the
// accumulator starting at ac, in ascending lane order. The return value
// has bit l set when in-range lane l crossed a cell face. Every
// in-range lane's voxel must index both tables; lanes outside the range
// are never read through. Bitwise identical per lane, and in every
// accumulator addition chain, to the Go lane kernel — see
// push_avx2_amd64.s for the contract.
//
//go:noescape
func advanceBlockAVX2(b *particle.Block, ip *interp.Coeffs, ac *accum.Cell, con *laneConsts, out *laneVecs, l0, l1 int) uint32

// advanceRangeLanesAsm is the dispatch target when Kernel.Asm is set:
// one advanceBlockAVX2 call per block, whatever mix of voxels its
// lanes hold. The Go side bounds-checks every lane's voxel, counts
// voxel runs (carried across blocks) and grows the touched window
// exactly where advanceRangeLanes does, and records the returned
// crossers as movers in ascending index order, so the results —
// particles, movers, accumulators, counters — stay bitwise identical
// to both Go shapes.
func (k *Kernel) advanceRangeLanesAsm(buf *particle.Buffer, lo, hi int, a *accum.Array, bs *BlockState) {
	blk := buf.Blk
	ip := k.IP.C
	ac := a.A
	if len(ip) > maxGatherVoxels {
		// The gather index would overflow: refuse the asm kernel for this
		// table and run its bitwise-identical Go counterpart.
		k.advanceRangeLanes(buf, lo, hi, a, bs)
		return
	}
	con := laneConsts{qdt2mc: k.qdt2mc, q: k.q, cdx: k.cdtdx2, cdy: k.cdtdy2, cdz: k.cdtdz2}
	var out laneVecs
	bs.NPushed += int64(hi - lo)

	// The run count and the touched window are kept in locals, with no
	// data-dependent branch, and folded into bs and a once at the end.
	runV := int32(-1) // voxel of the current run (-1: none yet)
	var runs uint32
	vmin, vmax := int32(math.MaxInt32), int32(-1)
	for i := lo; i < hi; {
		base := i &^ particle.LaneMask
		l0 := i - base
		l1 := min(hi-base, particle.Lanes)
		b := &blk[base>>particle.LaneShift]

		// A voxel outside either table panics here, in Go, before the
		// assembly could gather from or add into wild memory.
		for l := l0; l < l1; l++ {
			v := b.Voxel[l]
			_, _ = ip[v], ac[v]
			d := uint32(v ^ runV)
			runs += (d | -d) >> 31 // 1 on a voxel change
			runV = v
			vmin, vmax = min(vmin, v), max(vmax, v)
		}
		for cross := advanceBlockAVX2(b, &ip[0], &ac[0], &con, &out, l0, l1); cross != 0; cross &= cross - 1 {
			l := bits.TrailingZeros32(cross)
			bs.Movers = append(bs.Movers, particle.Mover{
				DispX: out.ddx[l], DispY: out.ddy[l], DispZ: out.ddz[l], Idx: int32(base + l),
			})
		}
		i = base + l1
	}
	bs.NRuns += int64(runs)
	if vmax >= 0 {
		a.Touch(int(vmin))
		a.Touch(int(vmax))
	}
}
