package push

import (
	"govpic/internal/accum"
	"govpic/internal/particle"
)

// AdvancePUnfused is the pre-fusion particle sweep kept as the
// bit-identity oracle and benchmark baseline for the sorted-run fused
// path: every particle individually loads its voxel's interpolator and
// read-modify-writes its accumulator cell, exactly as advanceRange did
// before runs were introduced. The arithmetic is identical to AdvanceP
// term by term, so for any buffer — sorted or not — the two must agree
// bitwise on particles, movers, accumulators and counters, whichever
// lane shape AdvanceP runs (see the fused- and lane-equivalence
// property tests).
func (k *Kernel) AdvancePUnfused(buf *particle.Buffer) {
	bs := &k.serial
	bs.Reset()
	k.advanceRangeUnfused(buf, 0, buf.N(), k.Acc, bs)
	k.walkMovers(buf, k.Acc, bs)
	k.FinishBlocks(buf, []*BlockState{bs})
}

// advanceRangeUnfused is advanceRange without run fusion: per-particle
// interpolator load and per-particle accumulator read-modify-write. It
// counts one "run" per particle, matching its actual data motion under
// the package traffic model.
func (k *Kernel) advanceRangeUnfused(buf *particle.Buffer, lo, hi int, a *accum.Array, bs *BlockState) {
	blk := buf.Blk
	ip := k.IP.C
	qdt2mc := k.qdt2mc
	cdx, cdy, cdz := k.cdtdx2, k.cdtdy2, k.cdtdz2
	bs.NPushed += int64(hi - lo)
	bs.NRuns += int64(hi - lo)

	for i := lo; i < hi; i++ {
		b := &blk[i>>particle.LaneShift]
		l := i & particle.LaneMask
		dx, dy, dz := b.Dx[l], b.Dy[l], b.Dz[l]
		cc := &ip[b.Voxel[l]]

		hax := qdt2mc * (cc.Ex0 + dy*cc.DExDy + dz*(cc.DExDz+dy*cc.D2ExDyDz))
		hay := qdt2mc * (cc.Ey0 + dz*cc.DEyDz + dx*(cc.DEyDx+dz*cc.D2EyDzDx))
		haz := qdt2mc * (cc.Ez0 + dx*cc.DEzDx + dy*(cc.DEzDy+dx*cc.D2EzDxDy))
		ux := b.Ux[l] + hax
		uy := b.Uy[l] + hay
		uz := b.Uz[l] + haz

		cbx := cc.CBx0 + dx*cc.DCBxDx
		cby := cc.CBy0 + dy*cc.DCByDy
		cbz := cc.CBz0 + dz*cc.DCBzDz

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

		ux += hax
		uy += hay
		uz += haz
		b.Ux[l], b.Uy[l], b.Uz[l] = ux, uy, uz
		gi = rsqrt(1 + (ux*ux + uy*uy + uz*uz))

		ddx := ux * gi * cdx
		ddy := uy * gi * cdy
		ddz := uz * gi * cdz
		nx := dx + ddx
		ny := dy + ddy
		nz := dz + ddz

		if nx <= 1 && nx >= -1 && ny <= 1 && ny >= -1 && nz <= 1 && nz >= -1 {
			k.scatter(a, int(b.Voxel[l]), b.W[l], dx, dy, dz, ddx, ddy, ddz)
			b.Dx[l], b.Dy[l], b.Dz[l] = nx, ny, nz
			continue
		}
		bs.Movers = append(bs.Movers, particle.Mover{DispX: ddx, DispY: ddy, DispZ: ddz, Idx: int32(i)})
	}
}
