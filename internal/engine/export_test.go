package engine

import "testing"

// The tests of package engine_test may import what imports engine (workload,
// corpus, provenance); these open the reference executor and the scratch
// sentinel of the in-package tests to them.

var RunReference = runReference

func PoisonScratch(t testing.TB) { poisonScratch(t) }
