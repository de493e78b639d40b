//go:build race

package socialgraph

// raceEnabled reports whether the race detector is on; under it sync.Pool
// drops a share of the items put back, so pooled scratch is reallocated at
// random and allocation counts are not meaningful.
const raceEnabled = true
