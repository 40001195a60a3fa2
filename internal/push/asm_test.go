package push

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"govpic/internal/particle"
	"govpic/internal/pipe"
	"govpic/internal/rng"
)

// The asm↔go parity suite. The AVX2 block kernel claims bitwise
// identity with the Go lane kernel — not tolerance, identity — so
// every comparison here is on bit patterns (plain float comparison
// would wrongly flag identical NaNs as diverged; the populations
// deliberately include NaN-position and NaN-momentum particles, which
// the crosser mask must flag and moveP's backstop must handle the
// same way on both kernels).

func bitEq32(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }

func bitEqParticle(a, b particle.Particle) bool {
	return bitEq32(a.Dx, b.Dx) && bitEq32(a.Dy, b.Dy) && bitEq32(a.Dz, b.Dz) &&
		a.Voxel == b.Voxel &&
		bitEq32(a.Ux, b.Ux) && bitEq32(a.Uy, b.Uy) && bitEq32(a.Uz, b.Uz) &&
		bitEq32(a.W, b.W)
}

func bitEqOutgoing(a, b Outgoing) bool {
	return bitEqParticle(a.P, b.P) &&
		bitEq32(a.DispX, b.DispX) && bitEq32(a.DispY, b.DispY) && bitEq32(a.DispZ, b.DispZ)
}

// Population orders of the parity suite. The block kernel gathers a
// separate interpolator per lane, so the orders that matter are the
// ones that decide how many voxels a block's lanes span: one (sorted),
// random (shuffled), or eight (mixed — every lane in its own voxel,
// the shape the buffer decays towards between sorts).
const (
	orderSorted = iota
	orderShuffled
	orderMixed
)

var orderNames = [...]string{orderSorted: "sorted", orderShuffled: "shuffled", orderMixed: "mixed"}

// poisonVoxel is a voxel far outside any table: gathering it would
// fault, so a lane holding it proves the kernel never read that lane's
// interpolator.
const poisonVoxel = 1 << 30

// mixVoxels reassigns voxels so that lane l of block q sits in interior
// cell (3q + 5l) mod ncells: all 8 lanes of every block in different
// voxels (ncells > 35) and no run longer than one particle.
func mixVoxels(r *rig) {
	var cells []int32
	for iz := 1; iz <= r.g.NZ; iz++ {
		for iy := 1; iy <= r.g.NY; iy++ {
			for ix := 1; ix <= r.g.NX; ix++ {
				cells = append(cells, int32(r.g.Voxel(ix, iy, iz)))
			}
		}
	}
	for i := 0; i < r.buf.N(); i++ {
		q, l := i>>particle.LaneShift, i&particle.LaneMask
		p := r.buf.At(i)
		p.Voxel = cells[(3*q+5*l)%len(cells)]
		r.buf.Set(i, p)
	}
}

// distinctVoxels counts the different voxels among a block's lanes.
func distinctVoxels(b *particle.Block) int {
	seen := map[int32]bool{}
	for _, v := range b.Voxel {
		seen[v] = true
	}
	return len(seen)
}

// poisonTail writes poisonVoxel into the unused lanes of a partially
// filled last block, which the kernel must neither gather nor store.
func poisonTail(buf *particle.Buffer) {
	n := buf.N()
	if n&particle.LaneMask == 0 {
		return
	}
	b := &buf.Blk[n>>particle.LaneShift]
	for l := n & particle.LaneMask; l < particle.Lanes; l++ {
		b.Voxel[l] = poisonVoxel
	}
}

// asmParityRig builds the adversarial population of the lane-kernel
// matrix — a partially filled trailing block (for n+11 not a multiple
// of 8) and one block whose every lane crosses on the first step —
// plus NaN-position and NaN-momentum particles, which both kernels
// must defer to moveP identically, in the given order.
func asmParityRig(n int, seed uint64, order int) (*rig, *Kernel) {
	r := newRig(6, 5, 4, 0.5)
	r.smoothFields(0.3)
	r.loadRandom(n, 0.5, seed)
	if order == orderMixed {
		mixVoxels(r)
	}
	if n >= particle.Lanes {
		v := int32(r.g.Voxel(3, 2, 2))
		for l := 0; l < particle.Lanes; l++ {
			r.buf.Append(particle.Particle{
				Voxel: v, Dx: 0.98, Dy: float32(l) * 0.01, Ux: 3, W: 1,
			})
		}
		nan := float32(math.NaN())
		r.buf.Append(particle.Particle{Voxel: v, Dx: nan, W: 1})
		r.buf.Append(particle.Particle{Voxel: v, Dy: nan, Ux: 0.5, W: 1})
		r.buf.Append(particle.Particle{Voxel: v, Uz: nan, W: 1})
	}
	switch order {
	case orderSorted:
		sortByVoxel(r.buf)
	case orderShuffled:
		src := rng.New(seed^0x9e37, 1)
		for i := r.buf.N() - 1; i > 0; i-- {
			j := src.Intn(i + 1)
			pi, pj := r.buf.At(i), r.buf.At(j)
			r.buf.Set(i, pj)
			r.buf.Set(j, pi)
		}
	}
	return r, r.kernel(-1, 1, 0.24)
}

// checkAsmGoState requires bitwise-identical particles, accumulators,
// outgoing batches and counters between the asm and go kernels.
func checkAsmGoState(t *testing.T, label string, ra *rig, ka *Kernel, rg *rig, kg *Kernel) {
	t.Helper()
	if ra.buf.N() != rg.buf.N() {
		t.Fatalf("%s: particle counts diverged: asm %d go %d", label, ra.buf.N(), rg.buf.N())
	}
	for i := 0; i < ra.buf.N(); i++ {
		if !bitEqParticle(ra.buf.At(i), rg.buf.At(i)) {
			t.Fatalf("%s: particle %d diverged:\nasm %+v\ngo  %+v", label, i, ra.buf.At(i), rg.buf.At(i))
		}
	}
	for v := range ra.acc.A {
		a, g := &ra.acc.A[v], &rg.acc.A[v]
		for j := 0; j < 4; j++ {
			if !bitEq32(a.JX[j], g.JX[j]) || !bitEq32(a.JY[j], g.JY[j]) || !bitEq32(a.JZ[j], g.JZ[j]) {
				t.Fatalf("%s: accumulator voxel %d diverged:\nasm %+v\ngo  %+v", label, v, *a, *g)
			}
		}
	}
	for f := range ka.Out {
		if len(ka.Out[f]) != len(kg.Out[f]) {
			t.Fatalf("%s: face %d outgoing count diverged: asm %d go %d",
				label, f, len(ka.Out[f]), len(kg.Out[f]))
		}
		for i := range ka.Out[f] {
			if !bitEqOutgoing(ka.Out[f][i], kg.Out[f][i]) {
				t.Fatalf("%s: face %d outgoing %d diverged", label, f, i)
			}
		}
	}
	if ka.NPushed != kg.NPushed || ka.NMoved != kg.NMoved || ka.NSeg != kg.NSeg ||
		ka.NLost != kg.NLost || ka.NRuns != kg.NRuns ||
		math.Float64bits(ka.ELost) != math.Float64bits(kg.ELost) {
		t.Fatalf("%s: counters diverged:\nasm {p %d m %d s %d l %d r %d e %g}\ngo  {p %d m %d s %d l %d r %d e %g}",
			label, ka.NPushed, ka.NMoved, ka.NSeg, ka.NLost, ka.NRuns, ka.ELost,
			kg.NPushed, kg.NMoved, kg.NSeg, kg.NLost, kg.NRuns, kg.ELost)
	}
}

// TestAsmKernelMatchesGoMatrix is the headline parity gate: the asm
// and go lane kernels must produce bitwise-identical state through
// multiple steps across the serial path and the pipelined path with
// W ∈ {1, 3, 8} (whose range cuts fall mid-block), over sorted,
// shuffled and mixed-voxel populations with an all-lanes-crossing
// block and NaN particles, and over a partial trailing block whose
// unused lanes hold a poisoned voxel.
func TestAsmKernelMatchesGoMatrix(t *testing.T) {
	if !AsmAvailable() {
		t.Skip("assembly kernel unavailable on this build/CPU")
	}
	const steps = 4
	cases := []struct {
		name   string
		n      int
		order  int
		poison bool
	}{
		{"sorted", 4013, orderSorted, false},
		{"shuffled", 4013, orderShuffled, false},
		{"mixed", 4013, orderMixed, false},
		{"poisoned-tail", 4010, orderMixed, true},
	}
	for _, c := range cases {
		t.Run("input="+c.name, func(t *testing.T) {
			mk := func() (*rig, *Kernel) { return asmParityRig(c.n, 41, c.order) }
			if c.order == orderMixed {
				ra, _ := mk()
				if d := distinctVoxels(&ra.buf.Blk[0]); d != particle.Lanes {
					t.Fatalf("mixed population: first block spans %d voxels, want %d", d, particle.Lanes)
				}
			}
			if c.poison {
				ra, _ := mk()
				if ra.buf.N()&particle.LaneMask == 0 {
					t.Fatalf("population of %d fills its last block; nothing to poison", ra.buf.N())
				}
			}
			asmGoMatrix(t, mk, c.poison, steps)
		})
	}
}

func asmGoMatrix(t *testing.T, mk func() (*rig, *Kernel), poison bool, steps int) {
	prep := func(r *rig) {
		if poison {
			poisonTail(r.buf)
		}
	}
	// Serial path.
	ra, ka := mk()
	rg, kg := mk()
	ka.Asm = true
	for s := 0; s < steps; s++ {
		prep(ra)
		prep(rg)
		ra.acc.Clear()
		rg.acc.Clear()
		ka.AdvanceP(ra.buf)
		kg.AdvanceP(rg.buf)
		checkAsmGoState(t, fmt.Sprintf("serial step %d", s), ra, ka, rg, kg)
	}
	if ka.NMoved < int64(steps*particle.Lanes) {
		t.Fatalf("serial: only %d crossings; the crosser mask path was not exercised", ka.NMoved)
	}

	// Pipelined path across worker counts.
	for _, w := range []int{1, 3, 8} {
		ra, ka := mk()
		rg, kg := mk()
		ka.Asm = true
		pool := pipe.New(w)
		accsA, blocksA := blockFixture(ra)
		accsG, blocksG := blockFixture(rg)
		for s := 0; s < steps; s++ {
			prep(ra)
			prep(rg)
			runBlockedStep(ka, ra, pool, accsA, blocksA)
			runBlockedStep(kg, rg, pool, accsG, blocksG)
			checkAsmGoState(t, fmt.Sprintf("W=%d step %d", w, s), ra, ka, rg, kg)
		}
	}
}

// TestAsmBadVoxelPanicsInGo: a lane whose voxel does not index the
// interpolator table must fail the Go-side bounds check before the
// assembly runs — a recoverable index panic, never a gather from wild
// memory (which would kill the process with a fault).
func TestAsmBadVoxelPanicsInGo(t *testing.T) {
	if !AsmAvailable() {
		t.Skip("assembly kernel unavailable on this build/CPU")
	}
	for _, bad := range []int32{poisonVoxel, -1} {
		r, k := asmParityRig(20, 3, orderMixed)
		k.Asm = true
		p := r.buf.At(11)
		p.Voxel = bad
		r.buf.Set(11, p)
		func() {
			defer func() {
				err, ok := recover().(runtime.Error)
				if !ok || !strings.Contains(err.Error(), "index out of range") {
					t.Fatalf("voxel %d: want an index-out-of-range panic, got %v", bad, err)
				}
			}()
			k.AdvanceP(r.buf)
		}()
	}
}

// TestAsmKernelMoverParity compares the recorded (unfinished) movers of
// AdvanceBlock directly — index order, displacements, bit patterns —
// before any moveP runs, isolating the crosser mask and displacement
// stage from the shared mover machinery.
func TestAsmKernelMoverParity(t *testing.T) {
	if !AsmAvailable() {
		t.Skip("assembly kernel unavailable on this build/CPU")
	}
	ra, ka := asmParityRig(2013, 7, orderSorted)
	rg, kg := asmParityRig(2013, 7, orderSorted)
	ka.Asm = true
	var bsA, bsG BlockState
	accA, _ := blockFixture(ra)
	accG, _ := blockFixture(rg)
	// Deliberately lane-misaligned range bounds: spans clipped at both
	// ends of the range must mask identically.
	lo, hi := 3, ra.buf.N()-5
	ka.AdvanceBlock(ra.buf, lo, hi, accA[0], &bsA)
	kg.AdvanceBlock(rg.buf, lo, hi, accG[0], &bsG)
	if len(bsA.Movers) == 0 {
		t.Fatal("population produced no movers; crosser parity not exercised")
	}
	if len(bsA.Movers) != len(bsG.Movers) {
		t.Fatalf("mover counts diverged: asm %d go %d", len(bsA.Movers), len(bsG.Movers))
	}
	for i := range bsA.Movers {
		a, g := bsA.Movers[i], bsG.Movers[i]
		if a.Idx != g.Idx || !bitEq32(a.DispX, g.DispX) || !bitEq32(a.DispY, g.DispY) || !bitEq32(a.DispZ, g.DispZ) {
			t.Fatalf("mover %d diverged:\nasm %+v\ngo  %+v", i, a, g)
		}
	}
}

// FuzzAsmGoParity drives randomized small populations (size, seed,
// thermal spread and order — as loaded, sorted or mixed-voxel — all
// fuzzed, with any partial last block poisoned) through one serial
// step of each kernel and requires bitwise-identical state. `go test`
// runs the seed corpus; `go test -fuzz=AsmGoParity ./internal/push`
// explores.
func FuzzAsmGoParity(f *testing.F) {
	f.Add(uint16(0), uint64(1), float64(0.3), uint8(orderSorted))
	f.Add(uint16(1), uint64(2), float64(0.1), uint8(orderShuffled))
	f.Add(uint16(17), uint64(3), float64(1.5), uint8(orderSorted))
	f.Add(uint16(333), uint64(4), float64(0.7), uint8(orderShuffled))
	f.Add(uint16(2048), uint64(5), float64(2.0), uint8(orderSorted))
	f.Add(uint16(8), uint64(6), float64(0.5), uint8(orderMixed))
	f.Add(uint16(45), uint64(7), float64(1.1), uint8(orderMixed))
	f.Add(uint16(1021), uint64(8), float64(3.0), uint8(orderMixed))
	f.Fuzz(func(t *testing.T, n uint16, seed uint64, uth float64, order uint8) {
		if !AsmAvailable() {
			t.Skip("assembly kernel unavailable on this build/CPU")
		}
		if math.IsNaN(uth) || math.IsInf(uth, 0) {
			uth = 0.5
		}
		uth = math.Mod(math.Abs(uth), 4)
		order %= uint8(len(orderNames))
		mk := func() (*rig, *Kernel) {
			r := newRig(6, 5, 4, 0.5)
			r.smoothFields(0.3)
			r.loadRandom(int(n%4096), uth, seed)
			switch order {
			case orderSorted:
				sortByVoxel(r.buf)
			case orderMixed:
				mixVoxels(r)
			}
			poisonTail(r.buf)
			return r, r.kernel(-1, 1, 0.24)
		}
		ra, ka := mk()
		rg, kg := mk()
		ka.Asm = true
		ra.acc.Clear()
		rg.acc.Clear()
		ka.AdvanceP(ra.buf)
		kg.AdvanceP(rg.buf)
		checkAsmGoState(t, fmt.Sprintf("n=%d seed=%d uth=%g order=%s", n, seed, uth, orderNames[order]), ra, ka, rg, kg)
	})
}
