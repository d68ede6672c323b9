package core

import (
	"fmt"

	"github.com/rfid-lion/lion/internal/mat"
)

// System is a stack of linear radical-line / radical-plane equations
// A·X = K with unknown X = [coords..., d_r]ᵀ. Dim is 2 or 3: the number of
// coordinate columns preceding the d_r column.
type System struct {
	A   *mat.Dense
	K   []float64
	Dim int
	// NumRefs is the number of reference-distance columns following the
	// coordinate columns; zero means one (the single-channel case).
	NumRefs int
}

// equation2D computes one radical-line equation (Eq. 7) for the pair (i, j):
//
//	α·x + β·y + ω·d_r = κ
//	α = 2(x_i−x_j), β = 2(y_i−y_j), ω = 2(Δd_i−Δd_j)
//	κ = x_i²−x_j² + y_i²−y_j² − Δd_i² + Δd_j²
func (p *Profile) equation2D(pr Pair) (row [3]float64, rhs float64) {
	pi, pj := p.Obs[pr.I].Pos, p.Obs[pr.J].Pos
	di, dj := p.deltaD[pr.I], p.deltaD[pr.J]
	row[0] = 2 * (pi.X - pj.X)
	row[1] = 2 * (pi.Y - pj.Y)
	row[2] = 2 * (di - dj)
	rhs = pi.X*pi.X - pj.X*pj.X + pi.Y*pi.Y - pj.Y*pj.Y - di*di + dj*dj
	return row, rhs
}

// equation3D computes one radical-plane equation (Eq. 9) for the pair (i, j).
func (p *Profile) equation3D(pr Pair) (row [4]float64, rhs float64) {
	pi, pj := p.Obs[pr.I].Pos, p.Obs[pr.J].Pos
	di, dj := p.deltaD[pr.I], p.deltaD[pr.J]
	row[0] = 2 * (pi.X - pj.X)
	row[1] = 2 * (pi.Y - pj.Y)
	row[2] = 2 * (pi.Z - pj.Z)
	row[3] = 2 * (di - dj)
	rhs = pi.X*pi.X - pj.X*pj.X +
		pi.Y*pi.Y - pj.Y*pj.Y +
		pi.Z*pi.Z - pj.Z*pj.Z -
		di*di + dj*dj
	return row, rhs
}

// BuildSystem assembles the linear system from the given pairs. dim must be
// 2 (unknowns x, y, d_r) or 3 (unknowns x, y, z, d_r). Pairs referencing
// out-of-range observations are rejected.
func BuildSystem(p *Profile, pairs []Pair, dim int) (*System, error) {
	if dim != 2 && dim != 3 {
		return nil, fmt.Errorf("core: dimension %d not supported", dim)
	}
	if len(pairs) < dim+1 {
		return nil, fmt.Errorf("core: %d pairs cannot determine %d unknowns: %w",
			len(pairs), dim+1, ErrTooFewObservations)
	}
	for _, pr := range pairs {
		if pr.I < 0 || pr.I >= p.Len() || pr.J < 0 || pr.J >= p.Len() || pr.I == pr.J {
			return nil, fmt.Errorf("core: invalid pair (%d,%d) for %d observations",
				pr.I, pr.J, p.Len())
		}
	}
	a := mat.NewDense(len(pairs), dim+1)
	k := make([]float64, len(pairs))
	p.fillSystem(a, k, pairs, dim)
	return &System{A: a, K: k, Dim: dim}, nil
}

// fillSystem writes one equation per pair into the rows of a (len(pairs) ×
// dim+1) and k: Eq. 7 rows [α, β, ω] for dim 2, Eq. 9 rows for dim 3.
func (p *Profile) fillSystem(a *mat.Dense, k []float64, pairs []Pair, dim int) {
	for r, pr := range pairs {
		if dim == 2 {
			row, rhs := p.equation2D(pr)
			a.Set(r, 0, row[0])
			a.Set(r, 1, row[1])
			a.Set(r, 2, row[2])
			k[r] = rhs
		} else {
			row, rhs := p.equation3D(pr)
			for c := 0; c < 4; c++ {
				a.Set(r, c, row[c])
			}
			k[r] = rhs
		}
	}
}
