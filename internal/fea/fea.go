// Package fea is a small plane-stress finite-element solver on structured
// quadrilateral grids. The AM process chain uses it twice (paper Fig. 1,
// Fig. 3): during design optimisation of the CAD model, and — central to
// ObfusCADe — to quantify the stress concentration at the tip of a spline
// split feature (paper Fig. 9), which drives the premature tensile failure
// of counterfeit prints.
//
// Elements are 4-node bilinear quads with 2x2 Gauss integration; the
// linear system is solved matrix-free with Jacobi-preconditioned conjugate
// gradients.
package fea

import (
	"fmt"
	"math"
)

// Model is a rectangular plane-stress domain discretised into NX x NY
// equal quad elements of size DX x DY. Elements can be deactivated to
// carve slits, notches and voids.
type Model struct {
	NX, NY int
	DX, DY float64
	// E is Young's modulus (MPa); Nu is Poisson's ratio; Thickness is
	// the out-of-plane thickness (mm).
	E, Nu, Thickness float64

	active []bool
}

// NewModel allocates a fully active model.
func NewModel(nx, ny int, dx, dy, e, nu, thickness float64) (*Model, error) {
	switch {
	case nx < 1 || ny < 1:
		return nil, fmt.Errorf("fea: need at least 1x1 elements, got %dx%d", nx, ny)
	case dx <= 0 || dy <= 0:
		return nil, fmt.Errorf("fea: element size must be positive (%g, %g)", dx, dy)
	case e <= 0 || thickness <= 0:
		return nil, fmt.Errorf("fea: modulus and thickness must be positive")
	case nu < 0 || nu >= 0.5:
		return nil, fmt.Errorf("fea: Poisson ratio %g out of [0, 0.5)", nu)
	case nx*ny > 4_000_000:
		return nil, fmt.Errorf("fea: %d elements exceed sanity limit", nx*ny)
	}
	active := make([]bool, nx*ny)
	for i := range active {
		active[i] = true
	}
	return &Model{NX: nx, NY: ny, DX: dx, DY: dy, E: e, Nu: nu, Thickness: thickness,
		active: active}, nil
}

// Width returns the domain extent in x.
func (m *Model) Width() float64 { return float64(m.NX) * m.DX }

// Active reports whether element (ix, iy) carries material.
func (m *Model) Active(ix, iy int) bool {
	if ix < 0 || iy < 0 || ix >= m.NX || iy >= m.NY {
		return false
	}
	return m.active[iy*m.NX+ix]
}

// Deactivate removes element (ix, iy) from the model.
func (m *Model) Deactivate(ix, iy int) {
	if ix >= 0 && iy >= 0 && ix < m.NX && iy < m.NY {
		m.active[iy*m.NX+ix] = false
	}
}

// ActiveCount returns the number of active elements.
func (m *Model) ActiveCount() int {
	n := 0
	for _, a := range m.active {
		if a {
			n++
		}
	}
	return n
}

// DeactivateSlit removes the elements crossed by the polyline (a crack or
// split trace given in domain coordinates).
func (m *Model) DeactivateSlit(poly [][2]float64) {
	for i := 0; i+1 < len(poly); i++ {
		a, b := poly[i], poly[i+1]
		steps := int(math.Hypot(b[0]-a[0], b[1]-a[1])/math.Min(m.DX, m.DY)*2) + 1
		for s := 0; s <= steps; s++ {
			t := float64(s) / float64(steps)
			x := a[0] + t*(b[0]-a[0])
			y := a[1] + t*(b[1]-a[1])
			m.Deactivate(int(x/m.DX), int(y/m.DY))
		}
	}
}

// nodeID returns the node index at grid position (ix, iy) with
// ix in [0, NX], iy in [0, NY].
func (m *Model) nodeID(ix, iy int) int { return iy*(m.NX+1) + ix }

// numNodes returns the node count.
func (m *Model) numNodes() int { return (m.NX + 1) * (m.NY + 1) }

// dMatrix returns the plane-stress constitutive matrix.
func (m *Model) dMatrix() [3][3]float64 {
	f := m.E / (1 - m.Nu*m.Nu)
	return [3][3]float64{
		{f, f * m.Nu, 0},
		{f * m.Nu, f, 0},
		{0, 0, f * (1 - m.Nu) / 2},
	}
}

// elementStiffness computes the 8x8 stiffness of one quad element.
func (m *Model) elementStiffness() [8][8]float64 {
	var ke [8][8]float64
	d := m.dMatrix()
	gp := [2]float64{-1 / math.Sqrt(3), 1 / math.Sqrt(3)}
	a, b := m.DX/2, m.DY/2 // Jacobian is diagonal for rectangles
	for _, xi := range gp {
		for _, eta := range gp {
			// Shape function derivatives in natural coordinates for
			// nodes (-1,-1), (1,-1), (1,1), (-1,1).
			dNxi := [4]float64{-(1 - eta) / 4, (1 - eta) / 4, (1 + eta) / 4, -(1 + eta) / 4}
			dNeta := [4]float64{-(1 - xi) / 4, -(1 + xi) / 4, (1 + xi) / 4, (1 - xi) / 4}
			var bm [3][8]float64
			for i := 0; i < 4; i++ {
				dNx := dNxi[i] / a
				dNy := dNeta[i] / b
				bm[0][2*i] = dNx
				bm[1][2*i+1] = dNy
				bm[2][2*i] = dNy
				bm[2][2*i+1] = dNx
			}
			w := a * b * m.Thickness // Gauss weight 1x1 times |J| times t
			for i := 0; i < 8; i++ {
				for j := 0; j < 8; j++ {
					var sum float64
					for p := 0; p < 3; p++ {
						for q := 0; q < 3; q++ {
							sum += bm[p][i] * d[p][q] * bm[q][j]
						}
					}
					ke[i][j] += sum * w
				}
			}
		}
	}
	return ke
}

// elementNodes returns the four node indices of element (ix, iy) in the
// local order (-1,-1), (1,-1), (1,1), (-1,1).
func (m *Model) elementNodes(ix, iy int) [4]int {
	return [4]int{
		m.nodeID(ix, iy),
		m.nodeID(ix+1, iy),
		m.nodeID(ix+1, iy+1),
		m.nodeID(ix, iy+1),
	}
}

// Solution holds a solved displacement field and derived stresses.
type Solution struct {
	Model *Model
	// U is the displacement vector, 2 dofs per node (ux, uy).
	U []float64
	// VonMises holds the per-element von Mises stress at the element
	// centre (0 for inactive elements), MPa.
	VonMises []float64
	// AppliedStrain is the nominal strain imposed on the domain.
	AppliedStrain float64
	// Iterations is the CG iteration count.
	Iterations int
}

// SolveTension stretches the domain along x by the given nominal strain:
// the left edge is held (ux = 0), the right edge is displaced by
// strain * Width, and one corner node is pinned in y. Returns the solved
// field with element stresses.
func (m *Model) SolveTension(strain float64) (*Solution, error) {
	if m.ActiveCount() == 0 {
		return nil, fmt.Errorf("fea: no active elements")
	}
	ndof := 2 * m.numNodes()
	fixed := make([]bool, ndof)
	prescribed := make([]float64, ndof)
	for iy := 0; iy <= m.NY; iy++ {
		left := m.nodeID(0, iy)
		right := m.nodeID(m.NX, iy)
		fixed[2*left] = true
		prescribed[2*left] = 0
		fixed[2*right] = true
		prescribed[2*right] = strain * m.Width()
	}
	// Pin y on the left and right bottom corners to remove rigid modes.
	fixed[2*m.nodeID(0, 0)+1] = true
	fixed[2*m.nodeID(m.NX, 0)+1] = true

	ke := m.elementStiffness()
	matvec := func(v, out []float64) {
		for i := range out {
			out[i] = 0
		}
		for iy := 0; iy < m.NY; iy++ {
			for ix := 0; ix < m.NX; ix++ {
				if !m.active[iy*m.NX+ix] {
					continue
				}
				nodes := m.elementNodes(ix, iy)
				var ue [8]float64
				for i := 0; i < 4; i++ {
					ue[2*i] = v[2*nodes[i]]
					ue[2*i+1] = v[2*nodes[i]+1]
				}
				for i := 0; i < 4; i++ {
					var fx, fy float64
					for j := 0; j < 8; j++ {
						fx += ke[2*i][j] * ue[j]
						fy += ke[2*i+1][j] * ue[j]
					}
					out[2*nodes[i]] += fx
					out[2*nodes[i]+1] += fy
				}
			}
		}
	}

	// Diagonal for Jacobi preconditioning.
	diag := make([]float64, ndof)
	for iy := 0; iy < m.NY; iy++ {
		for ix := 0; ix < m.NX; ix++ {
			if !m.active[iy*m.NX+ix] {
				continue
			}
			nodes := m.elementNodes(ix, iy)
			for i := 0; i < 4; i++ {
				diag[2*nodes[i]] += ke[2*i][2*i]
				diag[2*nodes[i]+1] += ke[2*i+1][2*i+1]
			}
		}
	}
	for i := range diag {
		if diag[i] == 0 {
			diag[i] = 1 // unattached dof
		}
	}

	// Solve K u = 0 with prescribed dofs via residual splitting:
	// start from u = prescribed, iterate on the free dofs.
	u := make([]float64, ndof)
	copy(u, prescribed)
	r := make([]float64, ndof)
	matvec(u, r)
	for i := range r {
		if fixed[i] {
			r[i] = 0
		} else {
			r[i] = -r[i]
		}
	}
	z := make([]float64, ndof)
	p := make([]float64, ndof)
	ap := make([]float64, ndof)
	for i := range r {
		z[i] = r[i] / diag[i]
	}
	copy(p, z)
	rz := dot(r, z)
	norm0 := math.Sqrt(dot(r, r))
	iters := 0
	maxIter := 20 * ndof
	sol := &Solution{Model: m, AppliedStrain: strain}
	for iter := 0; iter < maxIter; iter++ {
		if math.Sqrt(dot(r, r)) <= 1e-9*(1+norm0) {
			break
		}
		iters = iter + 1
		matvec(p, ap)
		for i := range ap {
			if fixed[i] {
				ap[i] = 0
			}
		}
		pap := dot(p, ap)
		if pap <= 0 {
			break
		}
		alpha := rz / pap
		for i := range u {
			if !fixed[i] {
				u[i] += alpha * p[i]
			}
			r[i] -= alpha * ap[i]
		}
		for i := range z {
			z[i] = r[i] / diag[i]
		}
		rzNew := dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	sol.U = u
	sol.Iterations = iters
	sol.VonMises = m.elementStresses(u)
	return sol, nil
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// elementStresses evaluates von Mises stress at each active element's
// centre.
func (m *Model) elementStresses(u []float64) []float64 {
	d := m.dMatrix()
	out := make([]float64, m.NX*m.NY)
	a, b := m.DX/2, m.DY/2
	// B matrix at the element centre (xi = eta = 0).
	dNxi := [4]float64{-0.25, 0.25, 0.25, -0.25}
	dNeta := [4]float64{-0.25, -0.25, 0.25, 0.25}
	for iy := 0; iy < m.NY; iy++ {
		for ix := 0; ix < m.NX; ix++ {
			ei := iy*m.NX + ix
			if !m.active[ei] {
				continue
			}
			nodes := m.elementNodes(ix, iy)
			var eps [3]float64 // epsx, epsy, gamma
			for i := 0; i < 4; i++ {
				ux := u[2*nodes[i]]
				uy := u[2*nodes[i]+1]
				dNx := dNxi[i] / a
				dNy := dNeta[i] / b
				eps[0] += dNx * ux
				eps[1] += dNy * uy
				eps[2] += dNy*ux + dNx*uy
			}
			var sig [3]float64
			for p := 0; p < 3; p++ {
				for q := 0; q < 3; q++ {
					sig[p] += d[p][q] * eps[q]
				}
			}
			vm := math.Sqrt(sig[0]*sig[0] + sig[1]*sig[1] - sig[0]*sig[1] + 3*sig[2]*sig[2])
			out[ei] = vm
		}
	}
	return out
}

// MaxStress returns the peak von Mises stress and the element where it
// occurs.
func (s *Solution) MaxStress() (val float64, ix, iy int) {
	for e, v := range s.VonMises {
		if v > val {
			val = v
			ix = e % s.Model.NX
			iy = e / s.Model.NX
		}
	}
	return val, ix, iy
}

// NominalStress returns the far-field stress implied by the applied
// strain on pristine material.
func (s *Solution) NominalStress() float64 {
	return s.Model.E * s.AppliedStrain
}

// Kt returns the stress concentration factor: peak von Mises over nominal
// stress.
func (s *Solution) Kt() float64 {
	nom := s.NominalStress()
	if nom == 0 {
		return 1
	}
	max, _, _ := s.MaxStress()
	kt := max / nom
	if kt < 1 {
		kt = 1
	}
	return kt
}

// FieldASCII renders the von Mises stress field as ASCII art, one
// character per element, '.' for inactive elements and increasing
// intensity through " .:-=+*#%@" — a terminal rendering of the paper's
// Fig. 9 stress contour plot.
func (s *Solution) FieldASCII() string {
	max, _, _ := s.MaxStress()
	if max <= 0 {
		max = 1
	}
	ramp := []byte(" .:-=+*#%@")
	var sb []byte
	for iy := s.Model.NY - 1; iy >= 0; iy-- {
		for ix := 0; ix < s.Model.NX; ix++ {
			if !s.Model.Active(ix, iy) {
				sb = append(sb, 'o')
				continue
			}
			v := s.VonMises[iy*s.Model.NX+ix] / max
			k := int(v * float64(len(ramp)-1))
			if k < 0 {
				k = 0
			}
			if k >= len(ramp) {
				k = len(ramp) - 1
			}
			sb = append(sb, ramp[k])
		}
		sb = append(sb, '\n')
	}
	return string(sb)
}

// SplitTipAnalysis builds the paper's Fig. 9 scenario: a gauge-section
// strip of width w and length l with an edge slit reaching depth d into
// the width at a shallow angle (the unbonded portion of a spline split
// seam), loaded in tension along x. It returns the solution and the
// stress concentration factor at the slit tip.
func SplitTipAnalysis(l, w, t, e, nu, slitDepth float64, nx int) (*Solution, float64, error) {
	if slitDepth < 0 || slitDepth >= w {
		return nil, 0, fmt.Errorf("fea: slit depth %g out of [0, %g)", slitDepth, w)
	}
	if nx <= 0 {
		nx = 120
	}
	dx := l / float64(nx)
	ny := int(math.Round(w / dx))
	if ny < 8 {
		ny = 8
	}
	dy := w / float64(ny)
	m, err := NewModel(nx, ny, dx, dy, e, nu, t)
	if err != nil {
		return nil, 0, err
	}
	if slitDepth > 0 {
		// A shallow-angle slit entering from the bottom edge at mid
		// length: (l/2 - 2d, 0) -> (l/2, d).
		m.DeactivateSlit([][2]float64{
			{l/2 - 2*slitDepth, 0},
			{l / 2, slitDepth},
		})
	}
	sol, err := m.SolveTension(0.01)
	if err != nil {
		return nil, 0, err
	}
	return sol, sol.Kt(), nil
}
