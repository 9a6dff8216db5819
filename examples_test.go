package qarv

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// goldenExamples print deterministic reports; each one's stdout must
// match examples/testdata/<name>.golden byte for byte. Regenerate a
// golden only for an intended change to what the example reports:
//
//	go run ./examples/<name> > examples/testdata/<name>.golden
var goldenExamples = []string{"vsweep", "sweep", "offload", "allocators", "networks", "streaming"}

// TestExampleGoldens builds the deterministic examples and diffs each
// one's stdout against its golden.
func TestExampleGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the examples; skipped in -short")
	}
	dir := t.TempDir()
	args := []string{"build", "-o", dir + string(filepath.Separator)}
	for _, e := range goldenExamples {
		args = append(args, "./examples/"+e)
	}
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		t.Fatalf("build examples: %v\n%s", err, out)
	}
	for _, e := range goldenExamples {
		t.Run(e, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("examples", "testdata", e+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command(filepath.Join(dir, e))
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("run: %v\n%s", err, stderr.Bytes())
			}
			if !bytes.Equal(got, want) {
				n, g, w := firstDiff(got, want)
				t.Errorf("stdout differs from examples/testdata/%s.golden at line %d:\n got  %q\n want %q", e, n, g, w)
			}
		})
	}
}

// firstDiff returns the 1-based number of the first line where got and
// want differ, and that line of each ("" past the end).
func firstDiff(got, want []byte) (n int, g, w string) {
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		g, w = "", ""
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			return i + 1, g, w
		}
	}
	return 0, "", ""
}
