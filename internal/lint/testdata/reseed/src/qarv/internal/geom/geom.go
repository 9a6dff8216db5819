// Package geom is the reseed golden fixture's stand-in for the real
// qarv/internal/geom: the analyzer matches *geom.RNG fields by name and
// package suffix.
package geom

// RNG mirrors the real deterministic generator.
type RNG struct{ state uint64 }

// NewRNG mirrors the real constructor.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }
