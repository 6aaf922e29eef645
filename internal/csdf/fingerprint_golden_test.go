package csdf_test

import (
	"testing"

	"kiter/internal/csdf"
	"kiter/internal/gen"
)

// TestFingerprintGolden pins Fingerprint's bytes. Memo keys persist in the
// disk cache tier's segments and are shared by every replica of a fleet,
// including replicas of different builds during a rolling upgrade, so a
// change to the hashed encoding would silently split every cache.
func TestFingerprintGolden(t *testing.T) {
	bounded := gen.Figure2()
	bounded.SetCapacity(0, 9)
	for _, c := range []struct {
		name string
		g    *csdf.Graph
		want string
	}{
		{"Figure2", gen.Figure2(), "be11eb4067e4271400ab1ceed92deeeaa842efd2ac15ce5a1f6f010b67a83c8c"},
		{"VideoPipeline", gen.VideoPipeline(), "3cc30bc1b7730bbef0dc0c32fe5a709677f74cfd0f20b0468a975a8102573371"},
		{"KIterChain(16)", gen.KIterChain(16), "44eadb1caf1f6f384918048a8328b6557394203d0a7319efc6cd7e3ffe8cf84c"},
		{"CyclicCSDF", gen.CyclicCSDF(), "7168d437e164c95adffee5affe600cacc097ea1000b60e7fa5642c1175906f0a"},
		{"Figure2, capacity 9", bounded, "2a33a5517a1789ee2f94f32f78c0557b1fd5711b1d205ebf7d1cf4c170a8852c"},
		{"MimicDSP(5, 1)[4]", gen.MimicDSP(5, 1).Graphs[4], "a5455195b77d587eb6c0238933bd7cbbe4a05a1f3a9eb7a4b9def34624da8d57"},
	} {
		if got := c.g.FingerprintHex(); got != c.want {
			t.Errorf("%s: FingerprintHex() = %s, want %s", c.name, got, c.want)
		}
	}
}
