//go:build race

package stream

// raceEnabled reports a race-detector build, where sync.Pool drops a share
// of Put items on purpose and allocation counts are not the program's own.
const raceEnabled = true
