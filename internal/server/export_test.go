package server

import "time"

// SetMaxJobWait replaces the long-poll clamp and returns the function that
// restores it. Call it before the daemon under test serves a request, and
// restore it after that daemon has closed.
func SetMaxJobWait(d time.Duration) (restore func()) {
	old := maxJobWait
	maxJobWait = d
	return func() { maxJobWait = old }
}
