package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"

	"govpic/internal/grid"
	"govpic/internal/particle"
)

// Checkpointing serializes the complete dynamic state — fields and
// particles of every rank plus the step/time counters — so a run can be
// stopped and resumed bit-exactly (the evolution is deterministic and
// the RNG is only used at load time). The configuration itself is not
// stored; Restore validates that the receiving simulation's geometry
// matches.
//
// Format v2 appends a little-endian CRC32 (IEEE) of every preceding
// byte (magic included), so Restore can reject truncated or bit-flipped
// files instead of silently resuming from garbage. v1 files (no
// checksum) are still read.
//
// Format v3 additionally records the rank layout (decomposition shape
// and partition-plane cuts) after the header, so a checkpoint written
// by a load-balanced run can be resumed either exactly (rebuilding the
// recorded geometry via Config.CutsX) or re-binned into a different
// geometry (RestoreRebin). v1/v2 files are read with their layout
// reconstructed from the uniform decomposition their rank count
// implies.

const (
	checkpointMagic   = "GOVPIC-CKPT-3\n"
	checkpointMagicV2 = "GOVPIC-CKPT-2\n"
	checkpointMagicV1 = "GOVPIC-CKPT-1\n"
)

// GeometryMismatchError reports a checkpoint whose global grid or
// species count differs from the receiving simulation's. No resume
// path can bridge it: the file describes a different physical problem.
type GeometryMismatchError struct {
	FileNX, FileNY, FileNZ, FileSpecies int
	WantNX, WantNY, WantNZ, WantSpecies int
}

func (e *GeometryMismatchError) Error() string {
	return fmt.Sprintf("core: checkpoint geometry %dx%dx%d/%d species does not match simulation %dx%dx%d/%d species",
		e.FileNX, e.FileNY, e.FileNZ, e.FileSpecies, e.WantNX, e.WantNY, e.WantNZ, e.WantSpecies)
}

// LayoutMismatchError reports a checkpoint whose global grid and
// species match but whose rank layout (rank count, decomposition shape
// or partition-plane cuts) differs from the simulation's. It is
// recoverable two ways: rebuild a simulation pinned to the recorded
// geometry (Config.CutsX = Layout.CX, NRanks = Layout.Dec.NRanks())
// and Restore exactly, or re-bin the file into the current geometry
// with RestoreRebin.
type LayoutMismatchError struct {
	// Layout is the partition the checkpoint was written under.
	Layout grid.Layout
}

func (e *LayoutMismatchError) Error() string {
	d := e.Layout.Dec
	return fmt.Sprintf("core: checkpoint layout %dx%dx%d ranks (x cuts %v) does not match simulation (re-bin or rebuild the recorded geometry to resume)",
		d.PX, d.PY, d.PZ, e.Layout.CX)
}

type cpWriter struct {
	w   io.Writer
	err error
	buf [8]byte
}

func (c *cpWriter) u64(v uint64) {
	if c.err != nil {
		return
	}
	binary.LittleEndian.PutUint64(c.buf[:], v)
	_, c.err = c.w.Write(c.buf[:8])
}

func (c *cpWriter) f64(v float64) { c.u64(math.Float64bits(v)) }

func (c *cpWriter) f32s(a []float32) {
	if c.err != nil {
		return
	}
	for _, v := range a {
		binary.LittleEndian.PutUint32(c.buf[:4], math.Float32bits(v))
		if _, c.err = c.w.Write(c.buf[:4]); c.err != nil {
			return
		}
	}
}

type cpReader struct {
	r   io.Reader
	err error
	buf [8]byte
}

func (c *cpReader) u64() uint64 {
	if c.err != nil {
		return 0
	}
	if _, c.err = io.ReadFull(c.r, c.buf[:8]); c.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(c.buf[:8])
}

func (c *cpReader) f64() float64 { return math.Float64frombits(c.u64()) }

func (c *cpReader) f32s(a []float32) {
	if c.err != nil {
		return
	}
	for i := range a {
		if _, c.err = io.ReadFull(c.r, c.buf[:4]); c.err != nil {
			return
		}
		a[i] = math.Float32frombits(binary.LittleEndian.Uint32(c.buf[:4]))
	}
}

// Checkpoint writes the full dynamic state to w in format v3 (with the
// rank layout and the trailing CRC32).
func (s *Simulation) Checkpoint(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	h := crc32.NewIEEE()
	mw := io.MultiWriter(bw, h)
	if _, err := io.WriteString(mw, checkpointMagic); err != nil {
		return err
	}
	c := &cpWriter{w: mw}
	c.u64(uint64(s.Cfg.NX))
	c.u64(uint64(s.Cfg.NY))
	c.u64(uint64(s.Cfg.NZ))
	c.u64(uint64(len(s.Ranks)))
	c.u64(uint64(len(s.Cfg.Species)))
	c.u64(uint64(s.step))
	c.f64(s.time)
	writeLayout(c, s.Ranks[0].D.Cfg.Layout)
	for _, rk := range s.Ranks {
		rk.writeState(c)
	}
	if c.err != nil {
		return c.err
	}
	var tr [4]byte
	binary.LittleEndian.PutUint32(tr[:], h.Sum32())
	if _, err := bw.Write(tr[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// writeLayout serializes the rank layout (v3 header extension).
func writeLayout(c *cpWriter, lay grid.Layout) {
	c.u64(uint64(lay.Dec.PX))
	c.u64(uint64(lay.Dec.PY))
	c.u64(uint64(lay.Dec.PZ))
	for _, cuts := range [][]int{lay.CX, lay.CY, lay.CZ} {
		for _, v := range cuts {
			c.u64(uint64(v))
		}
	}
}

// writeState serializes this rank's dynamic state — fields, background
// and particles — in the canonical checkpoint order.
func (rk *Rank) writeState(c *cpWriter) {
	f := rk.D.F
	for _, a := range [][]float32{f.Ex, f.Ey, f.Ez, f.Bx, f.By, f.Bz, f.Jx, f.Jy, f.Jz} {
		c.f32s(a)
	}
	if rk.rho0 != nil {
		c.u64(1)
		c.f32s(rk.rho0)
	} else {
		c.u64(0)
	}
	for _, sp := range rk.Species {
		n := sp.Buf.N()
		c.u64(uint64(n))
		// Particles serialize in gathered AoS form in index order, so the
		// byte stream (and hence StateCRC) is invariant under the storage
		// layout.
		for i := 0; i < n; i++ {
			p := sp.Buf.At(i)
			c.f32s([]float32{p.Dx, p.Dy, p.Dz})
			c.u64(uint64(uint32(p.Voxel)))
			c.f32s([]float32{p.Ux, p.Uy, p.Uz, p.W})
		}
	}
}

// StateCRC fingerprints this rank's dynamic state: the CRC32 (IEEE) of
// its canonical checkpoint serialization. Two ranks computing the same
// tile — whether hosted in one process or across a network — produce
// identical CRCs exactly when their states are bit-identical, which is
// how the distributed smoke tests prove transport transparency.
func (rk *Rank) StateCRC() uint32 {
	h := crc32.NewIEEE()
	rk.writeState(&cpWriter{w: h})
	return h.Sum32()
}

// StateCRCs returns every rank's StateCRC in rank order.
func (s *Simulation) StateCRCs() []uint32 {
	out := make([]uint32, len(s.Ranks))
	for r, rk := range s.Ranks {
		out[r] = rk.StateCRC()
	}
	return out
}

// cpHeader is a checkpoint's parsed preamble: global geometry, time
// counters and the rank layout the per-rank payload is laid out in.
type cpHeader struct {
	nx, ny, nz int
	nSpecies   int
	step       int
	time       float64
	layout     grid.Layout
}

// readCheckpointHeader consumes the magic and header from br and
// returns the parsed preamble, the reader positioned at the first
// rank's payload (checksumming into h when the format carries a CRC;
// h is nil for v1). v1/v2 files carry no layout, so theirs is
// reconstructed as the uniform decomposition their rank count implies
// — exactly the geometry those versions were written under.
func readCheckpointHeader(br *bufio.Reader) (*cpHeader, *cpReader, hash.Hash32, error) {
	magic := make([]byte, len(checkpointMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, nil, nil, fmt.Errorf("core: checkpoint truncated: %w", err)
	}
	var h hash.Hash32
	v3 := false
	switch string(magic) {
	case checkpointMagic:
		h = crc32.NewIEEE()
		h.Write(magic)
		v3 = true
	case checkpointMagicV2:
		h = crc32.NewIEEE()
		h.Write(magic)
	case checkpointMagicV1:
		// Legacy format: no checksum to verify.
	default:
		return nil, nil, nil, fmt.Errorf("core: not a checkpoint (bad magic)")
	}
	var src io.Reader = br
	if h != nil {
		src = io.TeeReader(br, h)
	}
	c := &cpReader{r: src}
	hd := &cpHeader{}
	hd.nx, hd.ny, hd.nz = int(c.u64()), int(c.u64()), int(c.u64())
	nRanks := int(c.u64())
	hd.nSpecies = int(c.u64())
	hd.step = int(c.u64())
	hd.time = c.f64()
	if v3 {
		px, py, pz := int(c.u64()), int(c.u64()), int(c.u64())
		if c.err == nil && px*py*pz != nRanks {
			return nil, nil, nil, fmt.Errorf("core: checkpoint layout %dx%dx%d does not cover %d ranks", px, py, pz, nRanks)
		}
		readCuts := func(p int) []int {
			if c.err != nil || p < 1 || p > 1<<20 {
				c.err = fmt.Errorf("implausible slab count %d", p)
				return nil
			}
			cuts := make([]int, p+1)
			for i := range cuts {
				cuts[i] = int(c.u64())
			}
			return cuts
		}
		cx, cy, cz := readCuts(px), readCuts(py), readCuts(pz)
		if c.err == nil {
			dec := grid.Decomp{PX: px, PY: py, PZ: pz, GNX: hd.nx, GNY: hd.ny, GNZ: hd.nz}
			lay, err := grid.NewLayout(dec, cx, cy, cz)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("core: checkpoint layout invalid: %w", err)
			}
			hd.layout = lay
		}
	} else {
		dec, err := grid.ChooseDecomp(nRanks, hd.nx, hd.ny, hd.nz)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("core: checkpoint rank count %d does not decompose %dx%dx%d: %w",
				nRanks, hd.nx, hd.ny, hd.nz, err)
		}
		hd.layout = grid.Uniform(dec)
	}
	if c.err != nil {
		return nil, nil, nil, fmt.Errorf("core: checkpoint truncated or unreadable: %w", c.err)
	}
	return hd, c, h, nil
}

// verifyTrailer checks the v2/v3 CRC trailer (h nil skips, for v1).
func verifyTrailer(br *bufio.Reader, h hash.Hash32) error {
	if h == nil {
		return nil
	}
	want := h.Sum32()
	var tr [4]byte
	if _, err := io.ReadFull(br, tr[:]); err != nil {
		return fmt.Errorf("core: checkpoint truncated (missing CRC trailer): %w", err)
	}
	if got := binary.LittleEndian.Uint32(tr[:]); got != want {
		return fmt.Errorf("core: checkpoint corrupt: CRC %08x in file, %08x computed", got, want)
	}
	return nil
}

// checkGeometry compares a checkpoint's global geometry to the
// config's, returning the structured hard error on mismatch.
func checkGeometry(hd *cpHeader, cfg *Config) error {
	if hd.nx != cfg.NX || hd.ny != cfg.NY || hd.nz != cfg.NZ || hd.nSpecies != len(cfg.Species) {
		return &GeometryMismatchError{
			FileNX: hd.nx, FileNY: hd.ny, FileNZ: hd.nz, FileSpecies: hd.nSpecies,
			WantNX: cfg.NX, WantNY: cfg.NY, WantNZ: cfg.NZ, WantSpecies: len(cfg.Species),
		}
	}
	return nil
}

// particleCheck refuses a decoded particle that could not have been
// written by a simulation on its grid: the voxel must be an interior
// cell, the offsets within the cell ([-1, 1], the paper's particle
// format) and the momenta and weight finite. The CRC trailer
// only proves the bytes arrived as written; a well-formed file can
// still carry a voxel that would index outside the interpolator table
// on the first step. Interior cells are tabulated once per grid so the
// per-particle test is a lookup, not a voxel decode.
type particleCheck struct{ interior []bool }

func newParticleCheck(g *grid.Grid) particleCheck {
	in := make([]bool, g.NV())
	for iz := 1; iz <= g.NZ; iz++ {
		for iy := 1; iy <= g.NY; iy++ {
			for ix := 1; ix <= g.NX; ix++ {
				in[g.Voxel(ix, iy, iz)] = true
			}
		}
	}
	return particleCheck{in}
}

func (pc particleCheck) check(p *particle.Particle) error {
	if v := int(p.Voxel); v < 0 || v >= len(pc.interior) || !pc.interior[v] {
		return fmt.Errorf("core: checkpoint particle in voxel %d, not an interior cell of the %d-voxel grid", p.Voxel, len(pc.interior))
	}
	for _, d := range [...]float32{p.Dx, p.Dy, p.Dz} {
		if !(d >= -1 && d <= 1) { // NaN fails both
			return fmt.Errorf("core: checkpoint particle in voxel %d has an offset outside [-1, 1] %+v", p.Voxel, *p)
		}
	}
	const exp = 0x7f800000 // all-ones exponent: Inf or NaN
	for _, x := range [...]float32{p.Ux, p.Uy, p.Uz, p.W} {
		if math.Float32bits(x)&exp == exp {
			return fmt.Errorf("core: checkpoint particle in voxel %d has a non-finite momentum or weight %+v", p.Voxel, *p)
		}
	}
	return nil
}

// Restore loads a checkpoint written by a simulation with the same
// geometry, rank layout and species list, replacing all dynamic state
// bit-exactly. A grid or species mismatch returns
// *GeometryMismatchError (unrecoverable); a rank-layout mismatch
// returns *LayoutMismatchError carrying the recorded layout, which the
// caller can bridge by rebuilding the recorded geometry or re-binning
// with RestoreRebin. v2/v3 files are checksum-verified, and every
// particle is checked (particleCheck) as it is decoded; a truncated,
// bit-flipped or out-of-range file is rejected with an error, in which
// case the simulation's dynamic state is undefined and the caller
// should rebuild or re-restore before stepping.
func (s *Simulation) Restore(r io.Reader) error {
	br := bufio.NewReaderSize(r, 1<<20)
	hd, c, h, err := readCheckpointHeader(br)
	if err != nil {
		return err
	}
	if err := checkGeometry(hd, &s.Cfg); err != nil {
		return err
	}
	if cur := s.Ranks[0].D.Cfg.Layout; !hd.layout.Equal(cur) {
		return &LayoutMismatchError{Layout: hd.layout}
	}
	for _, rk := range s.Ranks {
		f := rk.D.F
		for _, a := range [][]float32{f.Ex, f.Ey, f.Ez, f.Bx, f.By, f.Bz, f.Jx, f.Jy, f.Jz} {
			c.f32s(a)
		}
		if c.u64() == 1 {
			if rk.rho0 == nil {
				rk.rho0 = make([]float32, rk.D.G.NV())
			}
			c.f32s(rk.rho0)
		} else {
			rk.rho0 = nil
		}
		pc := newParticleCheck(rk.D.G)
		for _, sp := range rk.Species {
			n := int(c.u64())
			if c.err != nil {
				return c.err
			}
			sp.Buf.Clear()
			tmp := make([]float32, 3)
			tmp2 := make([]float32, 4)
			for i := 0; i < n; i++ {
				var p particle.Particle
				c.f32s(tmp)
				p.Dx, p.Dy, p.Dz = tmp[0], tmp[1], tmp[2]
				p.Voxel = int32(uint32(c.u64()))
				c.f32s(tmp2)
				p.Ux, p.Uy, p.Uz, p.W = tmp2[0], tmp2[1], tmp2[2], tmp2[3]
				if c.err != nil {
					return fmt.Errorf("core: checkpoint truncated or unreadable: %w", c.err)
				}
				if err := pc.check(&p); err != nil {
					return err
				}
				sp.Buf.Append(p)
			}
		}
	}
	if c.err != nil {
		return fmt.Errorf("core: checkpoint truncated or unreadable: %w", c.err)
	}
	if err := verifyTrailer(br, h); err != nil {
		return err
	}
	s.step = hd.step
	s.time = hd.time
	// Rebuild derived state.
	s.onAllRanks(func(rk *Rank) {
		rk.IP.Load(rk.D.F)
	})
	return nil
}
