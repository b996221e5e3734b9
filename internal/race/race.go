//go:build race

// Package race reports whether the binary was built with the race
// detector, whose instrumentation allocates: allocation-count tests skip
// themselves under it.
package race

// Enabled is true in -race builds.
const Enabled = true
