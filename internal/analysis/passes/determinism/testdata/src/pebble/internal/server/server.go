// Package server models the service layer: it lies outside the analyzer's
// clock scope, so its wall-clock and global-rand use produce no
// diagnostics. The map-iteration checks are not scoped and still apply.
package server

import (
	"math/rand"
	"time"
)

// Stamp is the legitimate service-layer shape: wall-clock timestamps on job
// metadata that never reach provenance bytes.
func Stamp() time.Time {
	return time.Now() // out of scope: no diagnostic expected
}

// Jitter draws from the global source; allowed here because retry jitter is
// not identifier material.
func Jitter() int {
	return rand.Intn(10) // out of scope: no diagnostic expected
}

// Leak shows the scope is surgical: map iteration order is still checked
// in every package.
func Leak(m map[string]int) []string {
	var keys []string
	for k := range m { // want `map keys/values are collected here but never sorted in Leak`
		keys = append(keys, k)
	}
	return keys
}
