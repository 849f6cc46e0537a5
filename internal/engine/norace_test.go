//go:build !race

package engine_test

const raceDetector = false
