//go:build race

package sim_test

// raceEnabled reports that this test binary runs under the race detector,
// where sync.Pool drops a share of what is put back, so a recycled chunk is
// not always the one handed out next.
const raceEnabled = true
