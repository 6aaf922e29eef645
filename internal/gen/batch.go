package gen

import (
	"fmt"
	"os"
	"path/filepath"

	"kiter/internal/sdf3x"
)

// WriteSuite materializes a suite as one JSON graph file per graph under
// dir (created if needed) and returns the written paths in graph order.
// Tests use it to build batch fixtures for `kiterd -batch`; the
// command-line way to write the evaluation suites is
// `gengraph -suite table1`.
func WriteSuite(dir string, s Suite) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(s.Graphs))
	for i, g := range s.Graphs {
		name := g.Name
		if name == "" {
			name = fmt.Sprintf("%s-%d", s.Name, i)
		}
		path := filepath.Join(dir, name+".json")
		if err := sdf3x.WriteFile(path, g); err != nil {
			return nil, fmt.Errorf("gen: writing %s: %w", path, err)
		}
		paths = append(paths, path)
	}
	return paths, nil
}

// SuiteByName builds one of the named benchmark suites with the given
// size and seed: "actualdsp" (fixed five graphs, count ignored),
// "mimicdsp", "lghsdf" or "lgtransient".
func SuiteByName(name string, count int, seed int64) (Suite, error) {
	switch name {
	case "actualdsp":
		return ActualDSP(), nil
	case "mimicdsp":
		return MimicDSP(count, seed), nil
	case "lghsdf":
		return LgHSDF(count, seed), nil
	case "lgtransient":
		return LgTransient(count, seed), nil
	default:
		return Suite{}, fmt.Errorf("gen: unknown suite %q (want actualdsp, mimicdsp, lghsdf or lgtransient)", name)
	}
}
