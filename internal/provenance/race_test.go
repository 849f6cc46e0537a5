//go:build race

package provenance

// raceDetector: the race detector's instrumentation allocates beside the
// code under test, so an allocation guard would measure the detector.
const raceDetector = true
