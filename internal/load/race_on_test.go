//go:build race

package load

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
