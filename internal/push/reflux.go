package push

import (
	"math"

	"govpic/internal/rng"
)

// RefluxParams configures a thermally refluxing wall — VPIC's
// "maxwellian_reflux" particle boundary, used in production LPI runs so
// that hot plasma touching a domain wall is re-emitted at the wall
// temperature instead of being lost or specularly reflected (which would
// let the edge plasma run away from the interior temperature).
type RefluxParams struct {
	// Uth is the re-emission thermal momentum spread per component.
	Uth [3]float32
	// Src supplies the random draws; each kernel owns its own stream so
	// runs stay deterministic per rank.
	Src *rng.Source
}

// EnableReflux switches the given face to refluxing re-emission with the
// given wall temperature. It overrides the face's Bound action.
func (k *Kernel) EnableReflux(face int, p RefluxParams) {
	if p.Src == nil {
		p.Src = rng.New(0x5eed, face)
	}
	k.Bound[face] = refluxAction
	k.reflux[face] = &p
}

// refluxAction is an internal sentinel the mover walk dispatches on.
const refluxAction Action = 255

// drawReflux returns the re-emission momentum for a wall whose inward
// normal points along sign·axis. The normal component is drawn from the
// flux-weighted half-Maxwellian (v·f(v), the distribution of particles
// crossing a surface), the tangential ones from the full Maxwellian.
func drawReflux(p *RefluxParams, axis int, sign float32) (ux, uy, uz float32) {
	var u [3]float32
	for c := 0; c < 3; c++ {
		if c == axis {
			// Flux-weighted half-Maxwellian: |u| = uth·sqrt(-2·ln U).
			mag := p.Uth[c] * float32(math.Sqrt(-2*math.Log(1-p.Src.Float64())))
			u[c] = sign * mag
		} else {
			u[c] = float32(p.Src.Maxwellian(float64(p.Uth[c])))
		}
	}
	return u[0], u[1], u[2]
}
