//go:build race

package dataflow_test

// raceEnabled reports that the race detector instruments this test
// binary, which changes allocation counts.
const raceEnabled = true
