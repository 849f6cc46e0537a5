//go:build !race

package provenance

const raceDetector = false
