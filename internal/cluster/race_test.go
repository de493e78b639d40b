//go:build race

package cluster

// raceEnabled reports whether the race detector is on; under it encoding a
// batch into a nil buffer allocates twice, so allocation counts are not
// the production build's.
const raceEnabled = true
