package push

import (
	"fmt"
	"testing"

	"govpic/internal/particle"
)

// TestAsmSpanMaskAllRanges runs both lane kernels over every sub-range
// [lo, hi) of a single 8-lane block — all 36 range-mask combinations —
// and requires bitwise-identical particles and accumulators, for a
// block whose lanes share one voxel and for one whose 8 lanes sit in 8
// different voxels. Lanes outside the range hold a poisoned voxel, so
// a gather that ignored the mask would fault, and they must be left
// untouched by the masked stores, including the unused lanes beyond a
// 5-particle partial block.
func TestAsmSpanMaskAllRanges(t *testing.T) {
	if !AsmAvailable() {
		t.Skip("assembly kernel unavailable on this build/CPU")
	}
	for _, mixed := range []bool{false, true} {
		for _, n := range []int{particle.Lanes, 5} {
			for lo := 0; lo < n; lo++ {
				for hi := lo + 1; hi <= n; hi++ {
					mk := func() (*rig, *Kernel) {
						r := newRig(6, 5, 4, 0.5)
						r.smoothFields(0.3)
						r.loadRandom(n, 0.6, uint64(17*n+lo*8+hi))
						b := &r.buf.Blk[0]
						if mixed {
							mixVoxels(r)
						} else {
							for l := range b.Voxel {
								b.Voxel[l] = b.Voxel[0]
							}
						}
						for l := range b.Voxel {
							if l < lo || l >= hi {
								b.Voxel[l] = poisonVoxel
							}
						}
						return r, r.kernel(-1, 1, 0.24)
					}
					ra, ka := mk()
					rg, kg := mk()
					ka.Asm = true
					var bsA, bsG BlockState
					ka.advance(ra.buf, lo, hi, ra.acc, &bsA)
					kg.advance(rg.buf, lo, hi, rg.acc, &bsG)
					label := fmt.Sprintf("mixed=%v n=%d range [%d,%d)", mixed, n, lo, hi)
					for i := 0; i < n; i++ {
						if !bitEqParticle(ra.buf.At(i), rg.buf.At(i)) {
							t.Fatalf("%s: particle %d diverged:\nasm %+v\ngo  %+v",
								label, i, ra.buf.At(i), rg.buf.At(i))
						}
					}
					for v := range ra.acc.A {
						a, g := &ra.acc.A[v], &rg.acc.A[v]
						for j := 0; j < 4; j++ {
							if !bitEq32(a.JX[j], g.JX[j]) || !bitEq32(a.JY[j], g.JY[j]) || !bitEq32(a.JZ[j], g.JZ[j]) {
								t.Fatalf("%s: accumulator voxel %d diverged", label, v)
							}
						}
					}
					if len(bsA.Movers) != len(bsG.Movers) || bsA.NRuns != bsG.NRuns {
						t.Fatalf("%s: movers/runs diverged: asm %d/%d go %d/%d",
							label, len(bsA.Movers), bsA.NRuns, len(bsG.Movers), bsG.NRuns)
					}
				}
			}
		}
	}
}
