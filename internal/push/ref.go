package push

import (
	"math"

	"govpic/internal/field"
	"govpic/internal/particle"
)

// AdvancePRef is the deliberately unoptimized reference pusher used as
// the ablation baseline: it gathers the twelve E edges and six B faces
// directly from the field arrays for every particle (no precomputed
// interpolator table), does the arithmetic in double precision, and
// defers to the same move machinery for deposition. Physics-wise it is
// the same algorithm, so it doubles as a cross-check of the optimized
// kernel; performance-wise it shows what the interpolator precompute and
// single-precision layout buy.
func (k *Kernel) AdvancePRef(buf *particle.Buffer, f *field.Fields) {
	g := k.G
	sx, sy, _ := g.Strides()
	sxy := sx * sy
	qdt2mc := float64(k.qdt2mc)
	n := buf.N()
	bs := &k.serial
	bs.Reset()
	bs.NPushed += int64(n)

	for i := 0; i < n; i++ {
		pt := buf.At(i)
		v := int(pt.Voxel)
		dx, dy, dz := float64(pt.Dx), float64(pt.Dy), float64(pt.Dz)

		// Gather the Yee values around the cell and interpolate in place.
		exg := trilinearE(float64(f.Ex[v]), float64(f.Ex[v+sx]), float64(f.Ex[v+sxy]), float64(f.Ex[v+sx+sxy]), dy, dz)
		eyg := trilinearE(float64(f.Ey[v]), float64(f.Ey[v+sxy]), float64(f.Ey[v+1]), float64(f.Ey[v+sxy+1]), dz, dx)
		ezg := trilinearE(float64(f.Ez[v]), float64(f.Ez[v+1]), float64(f.Ez[v+sx]), float64(f.Ez[v+sx+1]), dx, dy)
		cbx := 0.5*(float64(f.Bx[v])+float64(f.Bx[v+1])) + 0.5*dx*(float64(f.Bx[v+1])-float64(f.Bx[v]))
		cby := 0.5*(float64(f.By[v])+float64(f.By[v+sx])) + 0.5*dy*(float64(f.By[v+sx])-float64(f.By[v]))
		cbz := 0.5*(float64(f.Bz[v])+float64(f.Bz[v+sxy])) + 0.5*dz*(float64(f.Bz[v+sxy])-float64(f.Bz[v]))

		hax, hay, haz := qdt2mc*exg, qdt2mc*eyg, qdt2mc*ezg
		ux := float64(pt.Ux) + hax
		uy := float64(pt.Uy) + hay
		uz := float64(pt.Uz) + haz
		gi := 1 / math.Sqrt(1+ux*ux+uy*uy+uz*uz)
		f0 := qdt2mc * gi
		tx, ty, tz := f0*cbx, f0*cby, f0*cbz
		s := 2 / (1 + tx*tx + ty*ty + tz*tz)
		wx := ux + (uy*tz - uz*ty)
		wy := uy + (uz*tx - ux*tz)
		wz := uz + (ux*ty - uy*tx)
		ux += s * (wy*tz - wz*ty)
		uy += s * (wz*tx - wx*tz)
		uz += s * (wx*ty - wy*tx)
		ux += hax
		uy += hay
		uz += haz
		pt.Ux, pt.Uy, pt.Uz = float32(ux), float32(uy), float32(uz)
		gi = 1 / math.Sqrt(1+ux*ux+uy*uy+uz*uz)

		ddx := float32(ux * gi * float64(k.cdtdx2))
		ddy := float32(uy * gi * float64(k.cdtdy2))
		ddz := float32(uz * gi * float64(k.cdtdz2))
		nx := pt.Dx + ddx
		ny := pt.Dy + ddy
		nz := pt.Dz + ddz
		if nx <= 1 && nx >= -1 && ny <= 1 && ny >= -1 && nz <= 1 && nz >= -1 {
			k.scatter(k.Acc, v, pt.W, pt.Dx, pt.Dy, pt.Dz, ddx, ddy, ddz)
			pt.Dx, pt.Dy, pt.Dz = nx, ny, nz
			buf.Set(i, pt)
			continue
		}
		buf.Set(i, pt) // momentum is updated even for crossers
		bs.Movers = append(bs.Movers, particle.Mover{DispX: ddx, DispY: ddy, DispZ: ddz, Idx: int32(i)})
	}
	k.walkMovers(buf, k.Acc, bs)
	k.FinishBlocks(buf, []*BlockState{bs})
}

// trilinearE interpolates an E component from its four edges: w00 at
// (a,b) = (−1,−1), w10 at a=+1, w01 at b=+1, w11 at (+1,+1).
func trilinearE(w00, w01, w10, w11, a, b float64) float64 {
	// Note argument order matches the gather order used above: second
	// argument varies the *first* offset axis of the component's pair.
	c0 := 0.25 * (w00 + w01 + w10 + w11)
	ca := 0.25 * ((w01 + w11) - (w00 + w10))
	cb := 0.25 * ((w10 + w11) - (w00 + w01))
	cab := 0.25 * ((w00 + w11) - (w01 + w10))
	return c0 + a*ca + b*cb + a*b*cab
}
