package lint

import "testing"

func TestReseedGolden(t *testing.T) {
	runGolden(t, "reseed", []*Analyzer{ReseedAnalyzer}, "qarv/internal/policy")
}
