//go:build race

package engine_test

// raceDetector: under -race sync.Pool drops a share of what is put into it,
// so the stage scratch is allocated again and again and the allocation guard
// would measure the detector.
const raceDetector = true
