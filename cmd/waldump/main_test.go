package main

import (
	"testing"

	"socialtrust/internal/persist"
)

// TestKindNameFateBits checks that a fated record names the replica bit and
// prints every other fate bit, the retired deferred one included, in hex.
func TestKindNameFateBits(t *testing.T) {
	for flags, want := range map[byte]string{
		0:                          "fated",
		persist.FateReplica:        "fated+replica",
		1 << 1:                     "fated+0x2",
		1<<1 | persist.FateReplica: "fated+replica+0x2",
		0x81:                       "fated+replica+0x80",
	} {
		if got := kindName(persist.KindFatedRating, flags); got != want {
			t.Errorf("flags %#x: %q, want %q", flags, got, want)
		}
	}
}
