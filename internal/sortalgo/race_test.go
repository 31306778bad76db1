//go:build race

package sortalgo

// raceEnabled: the race detector makes sync.Pool drop a quarter of what it
// is given, so a pooled table is sometimes allocated afresh.
const raceEnabled = true
