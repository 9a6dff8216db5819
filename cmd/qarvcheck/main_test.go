package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestListAnalyzers(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("-list exit = %d, stderr: %s", code, errb.String())
	}
	for _, name := range []string{"nondeterminism:", "ctxloop:", "reseedclone:", "errstyle:", "doccheck:"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %q:\n%s", name, out.String())
		}
	}
}

// TestSuiteOnRepository runs the full multichecker over the module the
// test binary lives in — the same invocation `make check` and CI use —
// and requires it to be clean.
func TestSuiteOnRepository(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check in -short mode")
	}
	var out, errb bytes.Buffer
	if code := run([]string{"./..."}, &out, &errb); code != 0 {
		t.Fatalf("qarvcheck ./... exit = %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "qarvcheck: ok") {
		t.Errorf("missing ok line: %q", out.String())
	}
}

// TestSuiteSubtreePattern checks ./dir/... pattern resolution against a
// single known-clean subtree.
func TestSuiteSubtreePattern(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-q", filepath.Join("..", "..", "internal", "alloc")}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("-q clean run printed: %q", out.String())
	}
}
