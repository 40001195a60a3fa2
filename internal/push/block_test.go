package push

import (
	"fmt"
	"math"
	"testing"

	"govpic/internal/accum"
	"govpic/internal/particle"
	"govpic/internal/pipe"
	"govpic/internal/rng"
)

// blockFixture allocates the per-block accumulators and states the
// pipelined path needs.
func blockFixture(r *rig) (accs []*accum.Array, blocks []*BlockState) {
	accs = make([]*accum.Array, pipe.NumBlocks)
	blocks = make([]*BlockState, pipe.NumBlocks)
	for b := range accs {
		accs[b] = accum.New(r.g)
		blocks[b] = new(BlockState)
	}
	return
}

// runBlockedStep is the pipelined push of one step: concurrent block
// advance and mover walks into private accumulators, serial application
// of the pending records, reduction into the kernel accumulator.
func runBlockedStep(k *Kernel, r *rig, p *pipe.Pool, accs []*accum.Array, blocks []*BlockState) {
	accum.ClearAll(p, accs)
	n := r.buf.N()
	p.Run(pipe.NumBlocks, func(b int) {
		bs := blocks[b]
		bs.Reset()
		lo, hi := pipe.BlockBounds(n, pipe.NumBlocks, b)
		k.AdvanceBlock(r.buf, lo, hi, accs[b], bs)
	})
	k.FinishBlocks(r.buf, blocks)
	accum.Reduce(p, k.Acc, accs)
}

// blockedRigs are the boundary setups of the pipelined-path matrix:
// each face action on all six faces, and a segment bound low enough
// that hot particles overflow it. exercised reports whether the serial
// run actually reached the setup's terminal path.
var blockedRigs = []struct {
	name      string
	set       func(k *Kernel)
	exercised func(k *Kernel, outs int) bool
}{
	{"wrap", func(k *Kernel) {}, func(k *Kernel, outs int) bool { return k.NSeg > k.NMoved }},
	{"reflect", func(k *Kernel) { k.Bound = [6]Action{Reflect, Reflect, Reflect, Reflect, Reflect, Reflect} },
		func(k *Kernel, outs int) bool { return k.NSeg > k.NMoved }},
	{"absorb", func(k *Kernel) { k.Bound = [6]Action{Absorb, Absorb, Absorb, Absorb, Absorb, Absorb} },
		func(k *Kernel, outs int) bool { return k.NLost > 0 }},
	{"migrate", func(k *Kernel) { k.Bound = [6]Action{Migrate, Migrate, Migrate, Migrate, Migrate, Migrate} },
		func(k *Kernel, outs int) bool { return outs > 0 }},
	{"reflux", func(k *Kernel) {
		for f := 0; f < 6; f++ {
			k.EnableReflux(f, RefluxParams{Uth: [3]float32{0.2, 0.2, 0.2}})
		}
	}, func(k *Kernel, outs int) bool { return k.reflux[0].Src.Float64() != rng.New(0x5eed, 0).Float64() }},
	{"maxseg", func(k *Kernel) { k.maxSeg = 2 }, func(k *Kernel, outs int) bool { return k.NLost > 0 }},
}

// blockedKernels are the sweep shapes of the pipelined-path matrix.
var blockedKernels = []struct {
	name  string
	lanes int
	asm   bool
}{
	{"asm", particle.Lanes, true},
	{"go", particle.Lanes, false},
	{"lanes1", 1, false},
}

// TestBlockedPushMatchesSerial drives the same hot plasma through the
// serial scalar AdvanceP and the block-pipelined path — every face
// action, every kernel shape, W ∈ {1, 2, 4, 8} with range cuts that
// fall mid-block. Particle state, the outgoing buffers (contents and
// order) and the reflux stream's next draw must match bitwise, since
// the pending records replay the serial sequence of removals, appends
// and draws; statistics counters must match exactly; the reduced
// current must match the serial deposition to float32 rounding
// (association across block boundaries differs). A fully periodic
// deck must leave no pending record at all.
func TestBlockedPushMatchesSerial(t *testing.T) {
	for _, rc := range blockedRigs {
		for _, kc := range blockedKernels {
			if kc.asm && !AsmAvailable() {
				continue
			}
			for _, w := range []int{1, 2, 4, 8} {
				label := fmt.Sprintf("%s/%s/W=%d", rc.name, kc.name, w)
				mk := func(lanes int, asm bool) (*rig, *Kernel) {
					r := newRig(6, 5, 4, 0.5)
					r.smoothFields(0.3)
					r.loadRandom(4000, 0.5, 99) // hot: plenty of face crossings
					k := r.kernel(-1, 1, 0.24)
					k.Lanes, k.Asm = lanes, asm
					rc.set(k)
					return r, k
				}
				rs, ks := mk(1, false)
				rb, kb := mk(kc.lanes, kc.asm)
				pool := pipe.New(w)
				accs, blocks := blockFixture(rb)
				outs := 0
				for s := 0; s < 5; s++ {
					rs.acc.Clear()
					ks.AdvanceP(rs.buf)
					runBlockedStep(kb, rb, pool, accs, blocks)
					for f := range ks.Out {
						if len(ks.Out[f]) != len(kb.Out[f]) {
							t.Fatalf("%s step %d: face %d outgoing count %d vs %d", label, s, f, len(ks.Out[f]), len(kb.Out[f]))
						}
						for i := range ks.Out[f] {
							if !bitEqOutgoing(ks.Out[f][i], kb.Out[f][i]) {
								t.Fatalf("%s step %d: face %d outgoing %d differs:\nserial  %+v\nblocked %+v",
									label, s, f, i, ks.Out[f][i], kb.Out[f][i])
							}
						}
						outs += len(ks.Out[f])
					}
					ks.ClearOutgoing()
					kb.ClearOutgoing()
					if rc.name == "wrap" {
						for b, bs := range blocks {
							if len(bs.Pending) != 0 {
								t.Fatalf("%s step %d: periodic deck left %d pending records in block %d", label, s, len(bs.Pending), b)
							}
						}
					}
				}

				if rs.buf.N() != rb.buf.N() {
					t.Fatalf("%s: particle counts diverged: %d vs %d", label, rs.buf.N(), rb.buf.N())
				}
				for i := 0; i < rs.buf.N(); i++ {
					if !bitEqParticle(rs.buf.At(i), rb.buf.At(i)) {
						t.Fatalf("%s: particle %d differs:\nserial  %+v\nblocked %+v",
							label, i, rs.buf.At(i), rb.buf.At(i))
					}
				}
				for f, p := range ks.reflux {
					if p != nil {
						if a, b := p.Src.Float64(), kb.reflux[f].Src.Float64(); a != b {
							t.Fatalf("%s: face %d reflux stream out of step: next draw %v vs %v", label, f, a, b)
						}
					}
				}
				// Integer counters are exact; ELost is a float64 sum whose
				// association differs between the serial chain and the
				// per-block partial sums, so it only matches to rounding.
				if ks.NPushed != kb.NPushed || ks.NMoved != kb.NMoved ||
					ks.NSeg != kb.NSeg || ks.NLost != kb.NLost ||
					math.Abs(ks.ELost-kb.ELost) > 1e-12*math.Abs(ks.ELost) {
					t.Fatalf("%s: counters diverged: serial {%d %d %d %d %g} blocked {%d %d %d %d %g}",
						label, ks.NPushed, ks.NMoved, ks.NSeg, ks.NLost, ks.ELost,
						kb.NPushed, kb.NMoved, kb.NSeg, kb.NLost, kb.ELost)
				}

				// Currents: same deposits, possibly different association.
				var maxDiff, scale float64
				for v := range rs.acc.A {
					a, b := &rs.acc.A[v], &rb.acc.A[v]
					for j := 0; j < 4; j++ {
						for _, pair := range [][2]float32{{a.JX[j], b.JX[j]}, {a.JY[j], b.JY[j]}, {a.JZ[j], b.JZ[j]}} {
							if d := math.Abs(float64(pair[0] - pair[1])); d > maxDiff {
								maxDiff = d
							}
							if s := math.Abs(float64(pair[0])); s > scale {
								scale = s
							}
						}
					}
				}
				if maxDiff > 1e-5*(scale+1) {
					t.Fatalf("%s: reduced current differs from serial by %g (scale %g)", label, maxDiff, scale)
				}
				// Last: the reflux probe consumes a draw.
				if !rc.exercised(ks, outs) {
					t.Fatalf("%s: the serial run never reached the %s path", label, rc.name)
				}
			}
		}
	}
}

// benchRig builds a push-heavy fixture shared by the serial/blocked
// benchmarks: a voxel-sorted population, as in production (species
// re-sort every few steps).
func benchRig() (*rig, *Kernel) {
	r := newRig(16, 8, 8, 0.5)
	r.smoothFields(0.1)
	r.loadRandom(100000, 0.1, 42)
	sortByVoxel(r.buf)
	return r, r.kernel(-1, 1, 0.1)
}

// BenchmarkAdvanceSerial is the pre-pipeline baseline: the plain
// AdvanceP sweep with a single shared accumulator.
func BenchmarkAdvanceSerial(b *testing.B) {
	r, k := benchRig()
	k.Prealloc(r.buf.N()/8, 64)
	r.acc.Clear()
	k.AdvanceP(r.buf) // warm-up: grow any remaining scratch
	b.ReportAllocs()  // steady state must be 0 allocs/op
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.acc.Clear()
		k.AdvanceP(r.buf)
	}
	b.ReportMetric(float64(r.buf.N())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpart/s")
}

// BenchmarkAdvanceBlocked measures the pipelined path (block advance +
// serial finish + reduction) for each worker count and both kernel
// shapes; the lanes8-vs-lanes1 gap at fixed W is what the AoSoA lane
// shape buys, and W1 vs the serial benchmark above isolates the
// overhead of the block machinery itself. Every iteration restores the
// pristine sorted buffer (outside the timer) so each measured step sees
// the identical run-length distribution.
func BenchmarkAdvanceBlocked(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		for _, lanes := range []int{particle.Lanes, 1} {
			b.Run(fmt.Sprintf("W%d/lanes%d", w, lanes), func(b *testing.B) {
				r, k := benchRig()
				k.Lanes = lanes
				k.Prealloc(r.buf.N()/8, 64)
				pool := pipe.New(w)
				accs, blocks := blockFixture(r)
				runBlockedStep(k, r, pool, accs, blocks) // warm-up
				pristine := particle.NewBuffer(0)
				pristine.CopyFrom(r.buf)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					r.buf.CopyFrom(pristine)
					b.StartTimer()
					runBlockedStep(k, r, pool, accs, blocks)
				}
				b.ReportMetric(float64(pristine.N())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpart/s")
			})
		}
	}
}

// TestBlockCountersSumToSerial verifies the per-block statistics of one
// pipelined step add up to exactly the serial kernel's counters — the
// invariant that makes the pipelined flop accounting trustworthy.
func TestBlockCountersSumToSerial(t *testing.T) {
	mk := func() (*rig, *Kernel) {
		r := newRig(6, 5, 4, 0.5)
		r.smoothFields(0.3)
		r.loadRandom(3000, 0.5, 17)
		k := r.kernel(-1, 1, 0.24)
		k.Bound[4] = Absorb // ZLo: some particles are lost
		return r, k
	}
	rs, ks := mk()
	rb, kb := mk()
	rs.acc.Clear()
	ks.AdvanceP(rs.buf)
	accs, blocks := blockFixture(rb)
	runBlockedStep(kb, rb, pipe.New(4), accs, blocks)

	var sum BlockState
	used := 0
	for _, bs := range blocks {
		sum.NPushed += bs.NPushed
		sum.NMoved += bs.NMoved
		sum.NSeg += bs.NSeg
		sum.NLost += bs.NLost
		sum.ELost += bs.ELost
		if bs.NPushed > 0 {
			used++
		}
	}
	if used < 2 {
		t.Fatalf("only %d blocks pushed particles; partition not exercised", used)
	}
	if sum.NPushed != ks.NPushed || sum.NMoved != ks.NMoved || sum.NSeg != ks.NSeg || sum.NLost != ks.NLost {
		t.Fatalf("block sums {%d %d %d %d} != serial {%d %d %d %d}",
			sum.NPushed, sum.NMoved, sum.NSeg, sum.NLost,
			ks.NPushed, ks.NMoved, ks.NSeg, ks.NLost)
	}
	if ks.NLost == 0 {
		t.Fatal("test did not exercise the absorb path")
	}
	// The kernel totals are the merged block stats.
	if kb.NPushed != sum.NPushed || kb.NSeg != sum.NSeg || kb.NLost != sum.NLost || kb.NMoved != sum.NMoved {
		t.Fatalf("kernel totals disagree with block sums")
	}
	if math.Abs(sum.ELost-ks.ELost) > 1e-12*math.Abs(ks.ELost) {
		t.Fatalf("ELost: block sum %g vs serial %g", sum.ELost, ks.ELost)
	}
}
