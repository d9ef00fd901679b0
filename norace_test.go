//go:build !race

package eel_test

const raceEnabled = false
