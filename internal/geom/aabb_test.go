package geom

import "testing"

func TestAABBEmpty(t *testing.T) {
	e := EmptyAABB()
	if !e.IsEmpty() {
		t.Fatal("EmptyAABB not empty")
	}
	if e.ContainsClosed(V(0, 0, 0)) {
		t.Error("empty box contains origin")
	}
	if e.Volume() != 0 {
		t.Errorf("empty volume = %v", e.Volume())
	}
	// Extending an empty box by a point yields a degenerate box at the point.
	b := e.Extend(V(1, 2, 3))
	if b.Min != V(1, 2, 3) || b.Max != V(1, 2, 3) {
		t.Errorf("extend empty = %v", b)
	}
}

func TestAABBContainsClosed(t *testing.T) {
	b := NewAABB(V(0, 0, 0), V(1, 1, 1))
	if !b.ContainsClosed(V(0, 0, 0)) || !b.ContainsClosed(V(1, 1, 1)) {
		t.Error("both corners must be inside for closed query")
	}
	if b.ContainsClosed(V(0.5, 0.5, 1.5)) {
		t.Error("point beyond max must be outside")
	}
}

func TestAABBCubified(t *testing.T) {
	b := NewAABB(V(0, 0, 0), V(2, 4, 1))
	c := b.Cubified()
	s := c.Size()
	if s.X != 4 || s.Y != 4 || s.Z != 4 {
		t.Fatalf("cubified size = %v, want (4,4,4)", s)
	}
	if c.Center() != b.Center() {
		t.Errorf("cubified center moved: %v vs %v", c.Center(), b.Center())
	}
	// The cube must contain the original box.
	if !c.ContainsClosed(b.Min) || !c.ContainsClosed(b.Max) {
		t.Error("cubified box does not contain original corners")
	}
}

func TestAABBExpanded(t *testing.T) {
	b := NewAABB(V(0, 0, 0), V(1, 1, 1)).Expanded(0.5)
	if b.Min != V(-0.5, -0.5, -0.5) || b.Max != V(1.5, 1.5, 1.5) {
		t.Errorf("expanded = %v", b)
	}
}
