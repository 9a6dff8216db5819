// Package delay is the reseed golden fixture's stand-in for the real
// qarv/internal/delay: the analyzer matches the ForRun result by name
// and package suffix.
package delay

// ServiceProcess mirrors the real capacity interface.
type ServiceProcess interface {
	Service(t int) float64
}
