// Command qarvcheck is the repository's static-analysis multichecker:
// it loads and type-checks the module with nothing outside the
// standard library and runs the internal/lint analyzer suite — the
// mechanical form of the determinism, cancellation, isolation, error,
// godoc and reachability contracts that the bench/sweep methodology
// rests on. The reachability analyzer builds the module's programs with
// the go command, which must be on PATH.
//
// Usage:
//
//	qarvcheck [-q] [./... | ./dir ...]   run every analyzer (default ./...)
//	qarvcheck -list                      print the analyzers and contracts
//
// Findings print as file:line:col: message (analyzer); exit status 1
// when anything is found, 2 on usage or load errors. A finding is
// suppressed by the directive `//qarv:allow <analyzer> <reason>` on
// the offending line or the line above — the reason is mandatory and
// the analyzer name must be real, or the directive is itself a
// finding.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"qarv/internal/lint"
)

// analyzers is the suite, built once per process: its unreached
// analyzer links the module's programs on the first package it checks
// and reuses that symbol set for every later run.
var analyzers = lint.Analyzers()

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: parses args, lists or runs the suite,
// and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("qarvcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "print the analyzers and the contracts they enforce")
	quiet := fs.Bool("q", false, "suppress ok lines")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%s: %s\n", a.Name, a.Doc)
		}
		return 0
	}
	return runSuite(fs.Args(), *quiet, stdout, stderr)
}

// runSuite loads the requested packages and runs the full analyzer
// suite over them.
func runSuite(patterns []string, quiet bool, stdout, stderr io.Writer) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	root, err := findModuleRoot(".")
	if err != nil {
		fmt.Fprintf(stderr, "qarvcheck: %v\n", err)
		return 2
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		fmt.Fprintf(stderr, "qarvcheck: %v\n", err)
		return 2
	}
	pkgs, err := loadPatterns(loader, root, patterns)
	if err != nil {
		fmt.Fprintf(stderr, "qarvcheck: %v\n", err)
		return 2
	}
	diags, err := lint.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "qarvcheck: %v\n", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "qarvcheck: %d finding(s)\n", len(diags))
		return 1
	}
	if !quiet {
		fmt.Fprintf(stdout, "qarvcheck: ok (%d packages, %d analyzers)\n", len(pkgs), len(analyzers))
	}
	return 0
}

// loadPatterns resolves `./...`, `./dir/...`, and plain directory
// arguments (relative to the working directory) into loaded packages.
func loadPatterns(loader *lint.Loader, root string, patterns []string) ([]*lint.Package, error) {
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	var pkgs []*lint.Package
	seen := make(map[string]bool)
	add := func(p *lint.Package) {
		if !seen[p.Path] {
			seen[p.Path] = true
			pkgs = append(pkgs, p)
		}
	}
	for _, pat := range patterns {
		if pat == "./..." || pat == "..." {
			all, err := loader.LoadAll()
			if err != nil {
				return nil, err
			}
			for _, p := range all {
				add(p)
			}
			continue
		}
		dir := strings.TrimSuffix(pat, "/...")
		recursive := dir != pat
		abs, err := filepath.Abs(dir)
		if err != nil {
			return nil, err
		}
		rel, err := filepath.Rel(absRoot, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("qarvcheck: %s is outside module %s", pat, root)
		}
		if recursive {
			sub, err := loadSubtree(loader, root, rel)
			if err != nil {
				return nil, err
			}
			for _, p := range sub {
				add(p)
			}
			continue
		}
		path := loader.ModulePath
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		p, err := loader.Load(path)
		if err != nil {
			return nil, err
		}
		add(p)
	}
	return pkgs, nil
}

// loadSubtree loads every package under the module-relative directory
// rel.
func loadSubtree(loader *lint.Loader, root, rel string) ([]*lint.Package, error) {
	all, err := loader.LoadAll()
	if err != nil {
		return nil, err
	}
	prefix := loader.ModulePath
	if rel != "." {
		prefix += "/" + filepath.ToSlash(rel)
	}
	var pkgs []*lint.Package
	for _, p := range all {
		if p.Path == prefix || strings.HasPrefix(p.Path, prefix+"/") {
			pkgs = append(pkgs, p)
		}
	}
	return pkgs, nil
}

// findModuleRoot walks up from dir to the nearest go.mod.
func findModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			// Prefer a path relative to the working directory so
			// findings print repo-relative, clickable positions.
			if rel, err := filepath.Rel(abs, d); err == nil && !strings.HasPrefix(rel, "..") {
				return rel, nil
			}
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		d = parent
	}
}
