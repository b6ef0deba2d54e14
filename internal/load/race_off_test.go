//go:build !race

package load

// raceEnabled reports whether the race detector instruments this build.
// Allocation-count assertions are skipped under -race: the detector adds
// shadow allocations that testing.AllocsPerRun would attribute to the server.
const raceEnabled = false
