//go:build race

package rating

// raceEnabled reports whether the race detector is on; under it allocation
// byte counts include the detector's own bookkeeping.
const raceEnabled = true
