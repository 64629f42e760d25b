//go:build race

package matrix

const raceEnabled = true
