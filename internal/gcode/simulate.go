package gcode

import (
	"context"
	"fmt"
	"math"
	"strings"

	"obfuscade/internal/geom"
	"obfuscade/internal/obs"
	"obfuscade/internal/trace"
)

// Simulation metrics: per-program latency plus deterministic command and
// violation totals.
var (
	stSimulate     = trace.NewStage("stage", "gcode.simulate")
	mSimCommands   = obs.Default().Counter("gcode.sim.commands")
	mSimViolations = obs.Default().Counter("gcode.sim.violations")
)

// Envelope is the printer's physical working volume and kinematic limits —
// the defender's "actuator limit switch" model (Table 1).
type Envelope struct {
	Min, Max geom.Vec3
	// MaxFeed is the highest legal feedrate, mm/min.
	MaxFeed float64
	// Accel is the axis acceleration in mm/s^2 used for time
	// integration; zero means instantaneous acceleration (upper-bound
	// speeds, lower-bound times).
	Accel float64
}

// DimensionEliteEnvelope returns the build envelope of the paper's FDM
// machine (203 x 203 x 305 mm).
func DimensionEliteEnvelope() Envelope {
	return Envelope{
		Min:     geom.V3(0, 0, 0),
		Max:     geom.V3(203, 203, 305),
		MaxFeed: 9000,
		Accel:   1500,
	}
}

// moveTime integrates a trapezoidal velocity profile: accelerate at a to
// the commanded speed v, cruise, decelerate. Short moves never reach v
// (triangular profile).
func moveTime(dist, v, a float64) float64 {
	if dist <= 0 || v <= 0 {
		return 0
	}
	if a <= 0 {
		return dist / v
	}
	accelDist := v * v / a // accelerate + decelerate distance
	if dist <= accelDist {
		// Triangular: dist = v_peak^2 / a, t = 2 v_peak / a.
		return 2 * math.Sqrt(dist/a)
	}
	return (dist-accelDist)/v + 2*v/a
}

// Violation is one safety problem found by the simulator.
type Violation struct {
	Line    int
	Kind    string
	Message string
}

// Report summarises a simulated program.
type Report struct {
	// Commands is the number of executable commands.
	Commands int
	// TravelLength and ExtrudeLength are XY path lengths in mm.
	TravelLength, ExtrudeLength float64
	// ExtrudedE is the final filament axis position.
	ExtrudedE float64
	// PrintTime is the feedrate-integrated duration in seconds.
	PrintTime float64
	// Bounds is the visited coordinate range.
	Bounds geom.AABB
	// Layers is the number of distinct Z heights visited by extruding
	// moves.
	Layers int
	// PerLayerExtrude maps layer z (rounded to 1 µm) to extruded length.
	PerLayerExtrude map[int64]float64
	// Violations lists envelope and kinematic violations.
	Violations []Violation
}

// OK reports whether the simulation found no violations.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// SimulateCtx executes the program against an envelope, integrating
// motion and extrusion, and collecting violations instead of stopping —
// the defender wants the full damage report. The stage span parents to
// the span carried by ctx and records the deterministic command count.
func SimulateCtx(ctx context.Context, p *Program, env Envelope) (*Report, error) {
	if p == nil || len(p.Commands) == 0 {
		return nil, fmt.Errorf("gcode: empty program")
	}
	_, sp := stSimulate.Start(ctx, trace.A("commands", fmt.Sprint(len(p.Commands))))
	defer sp.End()
	rep := &Report{PerLayerExtrude: make(map[int64]float64)}
	rep.Bounds = geom.EmptyAABB()
	pos := geom.V3(0, 0, 0)
	e := 0.0
	feed := env.MaxFeed
	layerSeen := make(map[int64]bool)

	for i, c := range p.Commands {
		switch c.Code {
		case "G0", "G1":
			next := pos
			if v, ok := c.Arg("X"); ok {
				next.X = v
			}
			if v, ok := c.Arg("Y"); ok {
				next.Y = v
			}
			if v, ok := c.Arg("Z"); ok {
				next.Z = v
			}
			if v, ok := c.Arg("F"); ok {
				if env.MaxFeed > 0 && v > env.MaxFeed {
					rep.Violations = append(rep.Violations, Violation{
						Line: i, Kind: "feedrate",
						Message: fmt.Sprintf("feedrate %.0f exceeds limit %.0f", v, env.MaxFeed),
					})
				}
				feed = v
			}
			if !inEnvelope(next, env) {
				rep.Violations = append(rep.Violations, Violation{
					Line: i, Kind: "envelope",
					Message: fmt.Sprintf("move to %v leaves envelope", next),
				})
			}
			dist := next.Sub(pos).Len()
			newE, hasE := c.Arg("E")
			if hasE && newE > e {
				rep.ExtrudeLength += pos.XY().Dist(next.XY())
				zKey := int64(math.Round(next.Z * 1000))
				rep.PerLayerExtrude[zKey] += pos.XY().Dist(next.XY())
				if !layerSeen[zKey] {
					layerSeen[zKey] = true
					rep.Layers++
				}
				e = newE
			} else {
				rep.TravelLength += dist
			}
			rep.PrintTime += moveTime(dist, feed/60, env.Accel)
			rep.Bounds.Extend(next)
			pos = next
			rep.Commands++
		case "G92":
			if v, ok := c.Arg("E"); ok {
				e = v
			}
			rep.Commands++
		case "G21", "G90", "M104", "M140", "T0", "T1", "":
			rep.Commands++
		default:
			rep.Violations = append(rep.Violations, Violation{
				Line: i, Kind: "unknown-command",
				Message: fmt.Sprintf("unsupported code %q", c.Code),
			})
		}
	}
	rep.ExtrudedE = e
	mSimCommands.Add(int64(rep.Commands))
	mSimViolations.Add(int64(len(rep.Violations)))
	return rep, nil
}

func inEnvelope(p geom.Vec3, env Envelope) bool {
	return p.X >= env.Min.X && p.X <= env.Max.X &&
		p.Y >= env.Min.Y && p.Y <= env.Max.Y &&
		p.Z >= env.Min.Z && p.Z <= env.Max.Z
}

// RoleBreakdown sums extruded XY length per move role, using the TYPE
// comments the generator attaches to extruding moves. Unannotated
// extruding moves count under "other".
func RoleBreakdown(p *Program) map[string]float64 {
	out := map[string]float64{}
	pos := [2]float64{}
	e := 0.0
	for _, c := range p.Commands {
		switch c.Code {
		case "G0", "G1":
			next := pos
			if v, ok := c.Arg("X"); ok {
				next[0] = v
			}
			if v, ok := c.Arg("Y"); ok {
				next[1] = v
			}
			newE, hasE := c.Arg("E")
			if hasE && newE > e {
				dx := next[0] - pos[0]
				dy := next[1] - pos[1]
				dist := math.Hypot(dx, dy)
				role := "other"
				if strings.HasPrefix(c.Comment, "TYPE:") {
					role = strings.TrimPrefix(c.Comment, "TYPE:")
				}
				out[role] += dist
				e = newE
			}
			pos = next
		case "G92":
			if v, ok := c.Arg("E"); ok {
				e = v
			}
		}
	}
	return out
}

// DiffReport compares two programs' physical effect.
type DiffReport struct {
	// ExtrudeDelta is the difference in total extruded XY length.
	ExtrudeDelta float64
	// LayerDelta is the difference in layer counts.
	LayerDelta int
	// MaxLayerDelta is the largest per-layer extruded-length difference.
	MaxLayerDelta float64
	// BoundsDelta is the difference of bounding-box sizes.
	BoundsDelta geom.Vec3
}

// Equivalent reports whether the diff is negligible: same layers, nearly
// the same per-layer extrusion and bounds.
func (d DiffReport) Equivalent(tol float64) bool {
	return d.LayerDelta == 0 &&
		math.Abs(d.ExtrudeDelta) <= tol &&
		d.MaxLayerDelta <= tol &&
		d.BoundsDelta.Abs().Len() <= tol
}

// Compare simulates both programs and diffs their physical effect — the
// G-code integrity check a defender runs against a trusted reference
// before releasing a job to the printer.
func Compare(a, b *Program, env Envelope) (DiffReport, error) {
	ra, err := SimulateCtx(context.Background(), a, env)
	if err != nil {
		return DiffReport{}, err
	}
	rb, err := SimulateCtx(context.Background(), b, env)
	if err != nil {
		return DiffReport{}, err
	}
	d := DiffReport{
		ExtrudeDelta: rb.ExtrudeLength - ra.ExtrudeLength,
		LayerDelta:   rb.Layers - ra.Layers,
		BoundsDelta:  rb.Bounds.Size().Sub(ra.Bounds.Size()),
	}
	for z, la := range ra.PerLayerExtrude {
		delta := math.Abs(rb.PerLayerExtrude[z] - la)
		if delta > d.MaxLayerDelta {
			d.MaxLayerDelta = delta
		}
	}
	for z, lb := range rb.PerLayerExtrude {
		if _, ok := ra.PerLayerExtrude[z]; !ok && lb > d.MaxLayerDelta {
			d.MaxLayerDelta = lb
		}
	}
	return d, nil
}
