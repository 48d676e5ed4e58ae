//go:build !race

package optimize

// raceEnabled reports whether the test binary runs under the race
// detector.
const raceEnabled = false
