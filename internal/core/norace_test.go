//go:build !race

package core

// raceDetector reports whether the tests run under the race detector, whose
// instrumentation allocates on its own account.
const raceDetector = false
