//go:build race

package container

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
