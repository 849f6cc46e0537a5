// Package suite names the project's full analyzer set in one place, shared
// by cmd/pebblevet and by tests that want to run the whole gate in-process.
package suite

import (
	"pebble/internal/analysis"
	"pebble/internal/analysis/passes/capturesound"
	"pebble/internal/analysis/passes/codecerr"
	"pebble/internal/analysis/passes/determinism"
	"pebble/internal/analysis/passes/hotalloc"
	"pebble/internal/analysis/passes/lockcheck"
	"pebble/internal/analysis/passes/rangecapture"
)

// Analyzers returns the checks `make check` and CI enforce on every push:
// the six analyzers plus the driver-level stale-ignore check, which
// reports //pebblevet:ignore directives that no longer suppress anything.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		determinism.Analyzer,
		capturesound.Analyzer,
		lockcheck.Analyzer,
		codecerr.Analyzer,
		rangecapture.Analyzer,
		hotalloc.Analyzer,
		analysis.StaleIgnore,
	}
}
