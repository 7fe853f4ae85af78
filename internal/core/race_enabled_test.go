//go:build race

package core

// raceEnabled reports whether this test binary was built with -race.
// Under the race detector sync.Pool deliberately drops items, so tests
// that assert on allocation counts through a pool skip themselves.
const raceEnabled = true
