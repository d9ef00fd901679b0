//go:build race

package cfg_test

// raceEnabled reports that the race detector instruments this test
// binary; it makes allocation counts vary.
const raceEnabled = true
