//go:build !race

package rating

const raceEnabled = false
