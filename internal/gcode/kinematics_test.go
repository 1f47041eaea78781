package gcode

import (
	"context"
	"math"
	"testing"
	"testing/quick"
)

func TestMoveTimeInstantaneous(t *testing.T) {
	// Zero acceleration means dist/v.
	if got := moveTime(100, 50, 0); !approxEq(got, 2, 1e-12) {
		t.Errorf("moveTime = %v, want 2", got)
	}
	if moveTime(0, 50, 1000) != 0 || moveTime(10, 0, 1000) != 0 {
		t.Error("degenerate moves should take zero time")
	}
}

func TestMoveTimeTrapezoid(t *testing.T) {
	// Long move: accel phase adds exactly v/a over the instantaneous
	// estimate (2*v/a spent covering v^2/a distance that would have
	// taken v/a at cruise).
	const v, a = 30.0, 1500.0
	dist := 100.0
	got := moveTime(dist, v, a)
	want := dist/v + v/a
	if !approxEq(got, want, 1e-9) {
		t.Errorf("trapezoid time = %v, want %v", got, want)
	}
}

func TestMoveTimeTriangular(t *testing.T) {
	// A move too short to reach cruise speed: t = 2*sqrt(d/a).
	const v, a = 30.0, 1500.0
	dist := 0.1 // << v^2/a = 0.6
	got := moveTime(dist, v, a)
	want := 2 * math.Sqrt(dist/a)
	if !approxEq(got, want, 1e-12) {
		t.Errorf("triangular time = %v, want %v", got, want)
	}
	// Slower than cruising the whole way instantly.
	if got <= dist/v {
		t.Error("accel-limited move should take longer than instantaneous")
	}
}

func approxEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// Property: acceleration never makes a move faster, and time is monotone
// in distance.
func TestMoveTimeProperties(t *testing.T) {
	f := func(d, v, a float64) bool {
		d = clampPos(d, 1e-3, 1e4)
		v = clampPos(v, 1e-2, 1e3)
		a = clampPos(a, 1, 1e5)
		withAccel := moveTime(d, v, a)
		instant := moveTime(d, v, 0)
		if withAccel < instant-1e-12 {
			return false
		}
		return moveTime(2*d, v, a) > withAccel
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func clampPos(v, lo, hi float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return lo
	}
	v = math.Abs(v)
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func TestSimulateAccelSlowerThanInstant(t *testing.T) {
	paths := boxPaths(t)
	prog, err := Generate("box", paths, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	env := DimensionEliteEnvelope()
	withAccel, err := SimulateCtx(context.Background(), prog, env)
	if err != nil {
		t.Fatal(err)
	}
	env.Accel = 0
	instant, err := SimulateCtx(context.Background(), prog, env)
	if err != nil {
		t.Fatal(err)
	}
	if withAccel.PrintTime <= instant.PrintTime {
		t.Errorf("accel time %v should exceed instantaneous %v",
			withAccel.PrintTime, instant.PrintTime)
	}
}
