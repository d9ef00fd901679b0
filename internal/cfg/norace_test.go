//go:build !race

package cfg_test

const raceEnabled = false
