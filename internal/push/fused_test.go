package push

import (
	stdsort "sort"
	"testing"

	"govpic/internal/particle"
	"govpic/internal/rng"
)

// fusedPair builds two identical rigs + kernels over the same field
// pattern and particle population, so one can run the fused sweep and
// the other the unfused oracle.
func fusedPair(t testing.TB, n int, seed uint64, sorted bool) (*rig, *Kernel, *rig, *Kernel) {
	mk := func() (*rig, *Kernel) {
		r := newRig(8, 6, 4, 0.5)
		r.smoothFields(0.4)
		k := r.kernel(-1, 1, 0.15)
		return r, k
	}
	ra, ka := mk()
	rb, kb := mk()

	ra.loadRandom(n, 0.3, seed)
	if sorted {
		sortByVoxel(ra.buf)
	} else {
		// Deliberately adversarial order: shuffle, then duplicate a few
		// voxels far apart so the same cell appears in many short runs.
		src := rng.New(seed^0x9e37, 1)
		for i := ra.buf.N() - 1; i > 0; i-- {
			j := src.Intn(i + 1)
			pi, pj := ra.buf.At(i), ra.buf.At(j)
			ra.buf.Set(i, pj)
			ra.buf.Set(j, pi)
		}
	}
	rb.buf.CopyFrom(ra.buf)
	return ra, ka, rb, kb
}

// sortByVoxel stably sorts the buffer by voxel via the standard
// library — test fixtures only; avoids importing this repo's sort
// package (which is itself under test elsewhere).
func sortByVoxel(b *particle.Buffer) {
	p := b.All()
	stdsort.SliceStable(p, func(i, j int) bool { return p[i].Voxel < p[j].Voxel })
	for i := range p {
		b.Set(i, p[i])
	}
}

// checkFusedIdentical runs several steps of fused vs unfused on the
// pair and requires bitwise-equal particles, accumulators, outgoing
// buffers and counters after every step.
func checkFusedIdentical(t *testing.T, ra *rig, ka *Kernel, rb *rig, kb *Kernel, steps int) {
	t.Helper()
	for s := 0; s < steps; s++ {
		ra.acc.Clear()
		rb.acc.Clear()
		ka.AdvanceP(ra.buf)
		kb.AdvancePUnfused(rb.buf)

		if ra.buf.N() != rb.buf.N() {
			t.Fatalf("step %d: particle counts diverged: %d vs %d", s, ra.buf.N(), rb.buf.N())
		}
		for i := 0; i < ra.buf.N(); i++ {
			if ra.buf.At(i) != rb.buf.At(i) {
				t.Fatalf("step %d: particle %d diverged:\nfused   %+v\nunfused %+v",
					s, i, ra.buf.At(i), rb.buf.At(i))
			}
		}
		for v := range ra.acc.A {
			if ra.acc.A[v] != rb.acc.A[v] {
				t.Fatalf("step %d: accumulator voxel %d diverged:\nfused   %+v\nunfused %+v",
					s, v, ra.acc.A[v], rb.acc.A[v])
			}
		}
		for f := range ka.Out {
			if len(ka.Out[f]) != len(kb.Out[f]) {
				t.Fatalf("step %d: face %d outgoing count diverged", s, f)
			}
			for i := range ka.Out[f] {
				if ka.Out[f][i] != kb.Out[f][i] {
					t.Fatalf("step %d: face %d outgoing %d diverged", s, f, i)
				}
			}
		}
		if ka.NPushed != kb.NPushed || ka.NMoved != kb.NMoved ||
			ka.NSeg != kb.NSeg || ka.NLost != kb.NLost || ka.ELost != kb.ELost {
			t.Fatalf("step %d: counters diverged: fused {p %d m %d s %d l %d} unfused {p %d m %d s %d l %d}",
				s, ka.NPushed, ka.NMoved, ka.NSeg, ka.NLost,
				kb.NPushed, kb.NMoved, kb.NSeg, kb.NLost)
		}
	}
}

func TestFusedMatchesUnfusedSorted(t *testing.T) {
	ra, ka, rb, kb := fusedPair(t, 4000, 7, true)
	checkFusedIdentical(t, ra, ka, rb, kb, 1)
	// Freshly sorted, runs average ~ppc particles: far fewer runs than
	// pushes (later steps decay as particles drift, hence 1 step here).
	if ka.NRuns >= ka.NPushed/4 {
		t.Fatalf("sorted sweep found only short runs: %d runs for %d pushes", ka.NRuns, ka.NPushed)
	}
	checkFusedIdentical(t, ra, ka, rb, kb, 4)
}

func TestFusedMatchesUnfusedUnsorted(t *testing.T) {
	// The adversarial case for fusion: the same voxel split across many
	// runs, so flush-time accumulator sums interleave with earlier runs'
	// deposits. The load-modify-store design must keep this bitwise.
	ra, ka, rb, kb := fusedPair(t, 4000, 11, false)
	checkFusedIdentical(t, ra, ka, rb, kb, 5)
}

func TestFusedMatchesUnfusedProperty(t *testing.T) {
	// Many small randomized populations, sorted and shuffled, including
	// sizes 0 and 1 (empty sweep, single-run sweep).
	for _, n := range []int{0, 1, 2, 17, 333} {
		for _, sorted := range []bool{true, false} {
			ra, ka, rb, kb := fusedPair(t, n, uint64(n)*31+5, sorted)
			checkFusedIdentical(t, ra, ka, rb, kb, 3)
		}
	}
}

// TestAdvanceZeroAllocSteadyState: once Prealloc has sized the mover and
// outgoing buffers, a serial AdvanceP step allocates nothing — for both
// sweep shapes.
func TestAdvanceZeroAllocSteadyState(t *testing.T) {
	for _, lanes := range []int{1, particle.Lanes} {
		r := newRig(8, 6, 4, 0.5)
		r.smoothFields(0.4)
		k := r.kernel(-1, 1, 0.15)
		k.Lanes = lanes
		r.loadRandom(5000, 0.3, 3)
		sortByVoxel(r.buf)
		k.Prealloc(r.buf.N(), 64)
		// Warm up: grows anything Prealloc under-sized.
		for s := 0; s < 3; s++ {
			r.acc.Clear()
			k.AdvanceP(r.buf)
		}
		allocs := testing.AllocsPerRun(10, func() {
			r.acc.Clear()
			k.AdvanceP(r.buf)
		})
		if allocs != 0 {
			t.Fatalf("lanes=%d: steady-state AdvanceP allocates %.1f objects/step, want 0", lanes, allocs)
		}
	}
}

// benchSortedRig builds the benchmark population: benchN particles on a
// production-ish grid, voxel-sorted so runs average ~ppc particles,
// then advanced decay steps so movers break the runs up as they do
// between the periodic sorts of a real run.
func benchSortedRig(b *testing.B, n int, sorted bool, decay int) (*rig, *Kernel) {
	r := newRig(16, 8, 8, 0.5)
	r.smoothFields(0.3)
	k := r.kernel(-1, 1, 0.1)
	r.loadRandom(n, 0.2, 17)
	if sorted {
		sortByVoxel(r.buf)
	}
	k.Prealloc(n/8, 64)
	for s := 0; s < decay; s++ {
		r.acc.Clear()
		k.AdvanceP(r.buf)
	}
	r.acc.Clear()
	k.AdvanceP(r.buf) // warm-up allocates movers/outgoing
	return r, k
}

// BenchmarkPushSortedRuns measures the wide-lane and scalar fused
// kernels against the unfused baseline on the same sorted buffer, the
// lane kernel's worst case (unsorted buffer, one run per particle), and
// the state in between that a run spends most steps in (decayed: sorted,
// then advanced 10 steps).
// The lanes=8 vs lanes=1 gap is what the AoSoA lane shape buys; the
// lanes=1 vs unfused gap is what run fusion buys. Allocations must
// be 0.
func BenchmarkPushSortedRuns(b *testing.B) {
	const n = 100000
	cases := []struct {
		name   string
		sorted bool
		decay  int // steps advanced after the sort, before timing
		lanes  int // 0 = unfused baseline
		asm    bool
	}{
		{"asm/sorted", true, 0, particle.Lanes, true},
		{"lanes8/sorted", true, 0, particle.Lanes, false},
		{"lanes1/sorted", true, 0, 1, false},
		{"unfused/sorted", true, 0, 0, false},
		{"asm/decayed", true, 10, particle.Lanes, true},
		{"lanes1/decayed", true, 10, 1, false},
		{"asm/unsorted", false, 0, particle.Lanes, true},
		{"lanes8/unsorted", false, 0, particle.Lanes, false},
		{"lanes1/unsorted", false, 0, 1, false},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			if c.asm && !AsmAvailable() {
				b.Skip("assembly kernel unavailable on this build/CPU")
			}
			r, k := benchSortedRig(b, n, c.sorted, c.decay)
			if c.lanes > 0 {
				k.Lanes = c.lanes
			}
			k.Asm = c.asm
			// Advancing decays the voxel order, so every iteration restores
			// the pristine buffer (outside the timer): each measured sweep
			// sees the exact same run-length distribution.
			pristine := particle.NewBuffer(0)
			pristine.CopyFrom(r.buf)
			k.ResetStats() // drop warm-up counts so rates cover timed sweeps only
			b.ReportAllocs()
			b.SetBytes(int64(n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				r.buf.CopyFrom(pristine)
				r.acc.ClearFull()
				b.StartTimer()
				if c.lanes > 0 {
					k.AdvanceP(r.buf)
				} else {
					k.AdvancePUnfused(r.buf)
				}
			}
			b.StopTimer()
			px := float64(k.NPushed) / b.Elapsed().Seconds()
			b.ReportMetric(px/1e6, "Mpart/s")
			b.ReportMetric(float64(k.TrafficBytes())/float64(k.NPushed), "B/part")
		})
	}
}
