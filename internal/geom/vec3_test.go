package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func vecAlmostEq(a, b Vec3, tol float64) bool {
	return almostEq(a.X, b.X, tol) && almostEq(a.Y, b.Y, tol) && almostEq(a.Z, b.Z, tol)
}

func TestVec3Arithmetic(t *testing.T) {
	a := V(1, 2, 3)
	b := V(4, -5, 6)
	if got := a.Add(b); got != V(5, -3, 9) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != V(-3, 7, -3) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Mul(b); got != V(4, -10, 18) {
		t.Errorf("Mul = %v", got)
	}
	if got := a.Scale(2); got != V(2, 4, 6) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Dot(b); got != 4-10+18 {
		t.Errorf("Dot = %v", got)
	}
}

func TestVec3CrossOrthogonal(t *testing.T) {
	a := V(1, 0, 0)
	b := V(0, 1, 0)
	if got := a.Cross(b); got != V(0, 0, 1) {
		t.Fatalf("x cross y = %v, want z", got)
	}
	if got := b.Cross(a); got != V(0, 0, -1) {
		t.Fatalf("y cross x = %v, want -z", got)
	}
}

func TestVec3NormAndDist(t *testing.T) {
	v := V(3, 4, 0)
	if v.Norm() != 5 {
		t.Errorf("Norm = %v, want 5", v.Norm())
	}
	if v.Norm2() != 25 {
		t.Errorf("Norm2 = %v, want 25", v.Norm2())
	}
	if d := V(1, 1, 1).Dist(V(1, 1, 2)); d != 1 {
		t.Errorf("Dist = %v, want 1", d)
	}
}

func TestVec3NormalizedUnitLength(t *testing.T) {
	v := V(10, -3, 2).Normalized()
	if !almostEq(v.Norm(), 1, 1e-12) {
		t.Errorf("normalized length = %v", v.Norm())
	}
	zero := Vec3{}.Normalized()
	if zero != (Vec3{}) {
		t.Errorf("zero normalized = %v, want zero", zero)
	}
}

func TestVec3MinMax(t *testing.T) {
	a, b := V(1, 5, -2), V(3, 0, -1)
	if got := a.Min(b); got != V(1, 0, -2) {
		t.Errorf("Min = %v", got)
	}
	if got := a.Max(b); got != V(3, 5, -1) {
		t.Errorf("Max = %v", got)
	}
}

func TestVec3RotationsPreserveNorm(t *testing.T) {
	v := V(1.5, -2.25, 0.75)
	for _, angle := range []float64{0, 0.3, math.Pi / 2, math.Pi, 5.1} {
		if rot := v.RotateY(angle); !almostEq(rot.Norm(), v.Norm(), 1e-12) {
			t.Errorf("RotateY(%v) changed norm: %v -> %v", angle, v.Norm(), rot.Norm())
		}
	}
}

func TestVec3RotateYQuarterTurn(t *testing.T) {
	got := V(1, 0, 0).RotateY(math.Pi / 2)
	if !vecAlmostEq(got, V(0, 0, -1), 1e-12) {
		t.Errorf("RotateY(pi/2) of +x = %v, want -z", got)
	}
}

func TestVec3DotCrossIdentity(t *testing.T) {
	// Property: v · (v × u) == 0 for all v, u.
	f := func(vx, vy, vz, ux, uy, uz float64) bool {
		v := V(clampUnit(vx), clampUnit(vy), clampUnit(vz))
		u := V(clampUnit(ux), clampUnit(uy), clampUnit(uz))
		return almostEq(v.Dot(v.Cross(u)), 0, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// clampUnit maps arbitrary float64 quick-check inputs into a sane range so
// products do not overflow into Inf.
func clampUnit(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0.5
	}
	return math.Mod(x, 1e3)
}
