//go:build race

package pgo

// raceEnabled reports that this test binary runs under the race detector,
// whose instrumentation allocates on its own account: TestBuildAllocCeiling
// has nothing to hold a build to there.
const raceEnabled = true
