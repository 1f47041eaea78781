package tessellate

import (
	"fmt"
	"math"
	"sync"

	"obfuscade/internal/brep"
	"obfuscade/internal/geom"
	"obfuscade/internal/mesh"
)

// station is one axial sampling station of a solid of revolution.
type station struct {
	x float64
	r float64
}

// revolveStations computes the angular segment count and the axial
// stations for a revolve at the given resolution — the sampling plan
// shared by the production mesher and its reference oracle.
func revolveStations(r *brep.Revolve, res Resolution) ([]station, int, error) {
	if err := r.Validate(); err != nil {
		return nil, 0, err
	}
	maxR := 0.0
	const probe = 256
	for i := 0; i <= probe; i++ {
		x := r.X0 + float64(i)/probe*(r.X1-r.X0)
		if v := r.Radius(x); v > maxR {
			maxR = v
		}
	}
	// Angular segments from the deviation and angle limits.
	step := math.Min(
		2*math.Acos(geom.Clamp(1-res.Deviation/maxR, -1, 1)),
		res.AngleDeg*math.Pi/180,
	)
	if step <= 0 || math.IsNaN(step) {
		step = math.Pi / 8
	}
	nTheta := int(math.Ceil(2 * math.Pi / step))
	if nTheta < 8 {
		nTheta = 8
	}

	// Axial stations: adaptive per smooth piece, evaluated one-sided at
	// piece edges so steps stay sharp.
	const edgeEps = 1e-9
	var stations []station
	pieces := r.Pieces()
	for pi, piece := range pieces {
		a, b := piece[0], piece[1]
		evalAt := func(x float64) float64 {
			return r.Radius(geom.Clamp(x, a+edgeEps*(b-a), b-edgeEps*(b-a)))
		}
		n := 1
		for ; n <= 4096; n *= 2 {
			ok := true
			for i := 0; i < n && ok; i++ {
				xa := a + float64(i)/float64(n)*(b-a)
				xb := a + float64(i+1)/float64(n)*(b-a)
				ra, rb := evalAt(xa), evalAt(xb)
				for _, f := range [3]float64{0.25, 0.5, 0.75} {
					xm := xa + f*(xb-xa)
					rm := evalAt(xm)
					// Chordal deviation of the radius profile.
					lin := ra + (rb-ra)*f
					if math.Abs(rm-lin) > res.Deviation {
						ok = false
						break
					}
				}
			}
			if ok {
				break
			}
		}
		for i := 0; i <= n; i++ {
			x := a + float64(i)/float64(n)*(b-a)
			if i == 0 && pi > 0 {
				// Double station at an interior break: right-side value.
				stations = append(stations, station{x: x, r: evalAt(a + edgeEps*(b-a))})
				continue
			}
			stations = append(stations, station{x: x, r: evalAt(x)})
		}
	}
	return stations, nTheta, nil
}

// ringTrig is the pooled per-call scratch of tessellateRevolve: one ring's
// worth of sin/cos values, computed once per revolve instead of per point.
type ringTrig struct {
	sin, cos []float64
}

var ringTrigPool = sync.Pool{New: func() any { return new(ringTrig) }}

// tessellateRevolve meshes a solid of revolution: adaptive axial stations
// per smooth profile piece, angular rings sized by the chordal deviation,
// flat disc caps at the ends and annular faces at profile steps.
//
// The facet stream is bit-identical to tessellateRevolveReference
// (property tested): the ring trig table holds exactly the values the
// per-point expressions produce, including the j == nTheta wrap column
// (theta = 2*pi, whose sin/cos differ in floating point from theta = 0),
// and the triangle buffer is sized up front.
func tessellateRevolve(r *brep.Revolve, name, bodyName string, res Resolution) (mesh.Shell, error) {
	stations, nTheta, err := revolveStations(r, res)
	if err != nil {
		return mesh.Shell{}, err
	}

	rt := ringTrigPool.Get().(*ringTrig)
	defer ringTrigPool.Put(rt)
	if cap(rt.sin) < nTheta+1 {
		rt.sin = make([]float64, nTheta+1)
		rt.cos = make([]float64, nTheta+1)
	}
	rt.sin = rt.sin[:nTheta+1]
	rt.cos = rt.cos[:nTheta+1]
	for j := 0; j <= nTheta; j++ {
		theta := 2 * math.Pi * float64(j) / float64(nTheta)
		rt.sin[j] = math.Sin(theta)
		rt.cos[j] = math.Cos(theta)
	}
	ringPoint := func(st station, j int) geom.Vec3 {
		return geom.V3(
			st.x,
			r.Axis.X+st.r*rt.cos[j],
			r.Axis.Y+st.r*rt.sin[j],
		)
	}

	// Size the buffer exactly: 2 triangles per quad of each non-degenerate
	// band, plus one fan triangle per segment for each of the two caps.
	bands := 0
	for i := 0; i+1 < len(stations); i++ {
		if stations[i].x != stations[i+1].x || stations[i].r != stations[i+1].r {
			bands++
		}
	}
	shell := mesh.Shell{Name: name, Body: bodyName, Orient: mesh.Outward,
		Tris: make([]geom.Triangle, 0, (2*bands+2)*nTheta)}
	// Side bands (including annular step faces, which are just bands
	// between coincident-x rings of different radii).
	for i := 0; i+1 < len(stations); i++ {
		s0, s1 := stations[i], stations[i+1]
		if s0.x == s1.x && s0.r == s1.r {
			continue
		}
		for j := 0; j < nTheta; j++ {
			p00 := ringPoint(s0, j)
			p01 := ringPoint(s0, j+1)
			p10 := ringPoint(s1, j)
			p11 := ringPoint(s1, j+1)
			shell.Tris = append(shell.Tris,
				geom.Triangle{A: p00, B: p01, C: p10},
				geom.Triangle{A: p01, B: p11, C: p10},
			)
		}
	}
	// End caps: fans from the axis point, oriented outward (-x at X0,
	// +x at X1).
	capFan := func(st station, outwardPlus bool) {
		centre := geom.V3(st.x, r.Axis.X, r.Axis.Y)
		for j := 0; j < nTheta; j++ {
			a := ringPoint(st, j)
			b := ringPoint(st, j+1)
			if outwardPlus {
				shell.Tris = append(shell.Tris, geom.Triangle{A: centre, B: a, C: b})
			} else {
				shell.Tris = append(shell.Tris, geom.Triangle{A: centre, B: b, C: a})
			}
		}
	}
	capFan(stations[0], false)
	capFan(stations[len(stations)-1], true)

	if len(shell.Tris) == 0 {
		return mesh.Shell{}, fmt.Errorf("tessellate: empty revolve")
	}
	return shell, nil
}
