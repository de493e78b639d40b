//go:build !race

package socialgraph

const raceEnabled = false
