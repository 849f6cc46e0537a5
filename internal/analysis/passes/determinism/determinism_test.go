package determinism_test

import (
	"testing"

	"pebble/internal/analysis/analysistest"
	"pebble/internal/analysis/passes/determinism"
)

// TestDeterminism runs the fixture under pebble/internal/engine, inside the
// clock/rand scope: every map-iteration rule, the one-hop helper rule and
// the time.Now / global math/rand checks.
func TestDeterminism(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), determinism.Analyzer,
		"pebble/internal/engine/determinism")
}

// TestExemptPkgs pins the service-layer carve-out: pebble/internal/server is
// outside the clock/rand scope, so its job timestamps and retry jitter get
// no diagnostics, while the map-iteration checks still apply there
// unchanged.
func TestExemptPkgs(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), determinism.Analyzer,
		"pebble/internal/server")
}
