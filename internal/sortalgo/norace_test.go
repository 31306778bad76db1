//go:build !race

package sortalgo

const raceEnabled = false
