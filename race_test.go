//go:build race

package eel_test

// raceEnabled reports that the race detector instruments this test
// binary; it adds heap allocations of its own.
const raceEnabled = true
