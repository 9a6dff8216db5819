package lint

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"
)

// doccheckFixtureDir is the fixture package with five undocumented
// exported identifiers.
const doccheckFixtureDir = "testdata/doccheck/src/qarv/internal/render"

// doccheckWant is the analyzer's expected findings on the fixture, one
// line per undocumented identifier.
const doccheckWant = doccheckFixtureDir + "/render.go:9: exported type Undocumented is missing a doc comment\n" +
	doccheckFixtureDir + "/render.go:17: exported var V is missing a doc comment\n" +
	doccheckFixtureDir + "/render.go:22: exported function UndocumentedFunc is missing a doc comment\n" +
	doccheckFixtureDir + "/render.go:32: exported method N is missing a doc comment\n" +
	doccheckFixtureDir + "/render.go:38: exported var Y is missing a doc comment\n"

// TestDoccheckAnalyzerFindings pins the analyzer's findings on the
// fixture: same files, same lines, same messages.
func TestDoccheckAnalyzerFindings(t *testing.T) {
	loader := NewLoaderAt("qarv", filepath.Join("testdata", "doccheck", "src", "qarv"))
	pkg, err := loader.Load("qarv/internal/render")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	diags, err := Run([]*Package{pkg}, []*Analyzer{DoccheckAnalyzer})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var got bytes.Buffer
	for _, d := range diags {
		fmt.Fprintf(&got, "%s:%d: %s\n", filepath.ToSlash(d.Pos.Filename), d.Pos.Line, d.Message)
	}
	if got.String() != doccheckWant {
		t.Errorf("analyzer findings diverged:\ngot:\n%swant:\n%s", got.String(), doccheckWant)
	}
}
