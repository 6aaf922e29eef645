package gen

import (
	"testing"

	"kiter/internal/sdf3x"
)

func TestWriteSuiteRoundTrip(t *testing.T) {
	dir := t.TempDir()
	suite := MimicDSP(5, 99)
	paths, err := WriteSuite(dir, suite)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != len(suite.Graphs) {
		t.Fatalf("wrote %d files for %d graphs", len(paths), len(suite.Graphs))
	}
	for i, p := range paths {
		f, err := sdf3x.ReadFile(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if f.Graph().Fingerprint() != suite.Graphs[i].Fingerprint() {
			t.Fatalf("%s: round trip changed the structure", p)
		}
	}
}

func TestSuiteByName(t *testing.T) {
	for _, name := range []string{"actualdsp", "mimicdsp", "lghsdf", "lgtransient"} {
		s, err := SuiteByName(name, 3, 7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(s.Graphs) == 0 {
			t.Fatalf("%s: empty suite", name)
		}
	}
	if _, err := SuiteByName("nope", 1, 1); err == nil {
		t.Fatal("unknown suite accepted")
	}
}
