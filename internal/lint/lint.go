// Package lint is the repository's static-analysis suite: a small,
// dependency-free reimplementation of the golang.org/x/tools
// go/analysis vocabulary (Analyzer, Pass, Diagnostic) plus the custom
// analyzers that mechanically enforce the determinism, cancellation,
// and isolation contracts the bench/sweep methodology rests on. The
// cmd/qarvcheck multichecker drives every analyzer over the module;
// each analyzer also has an analysistest-style golden suite under
// testdata/.
//
// The framework mirrors go/analysis deliberately — Analyzer has Name,
// Doc, and Run(*Pass); Pass carries the type-checked package and a
// Report sink — so the suite can migrate to the real x/tools
// multichecker wholesale if the dependency ever lands. Until then the
// loader (load.go) type-checks the module with nothing outside the
// standard library.
//
// Findings are suppressed, one line at a time, by the directive
//
//	//qarv:allow <analyzer> <reason>
//
// placed on the offending line or the line directly above it. The
// driver enforces that every directive names a known analyzer and
// carries a non-empty reason; a malformed directive is itself a
// finding (see directive.go).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one static-analysis pass: a name used in
// reports and //qarv:allow directives, a short contract statement, and
// the function that inspects a single type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in findings and allow directives.
	Name string
	// Doc is a one-paragraph statement of the contract the analyzer
	// enforces, shown by qarvcheck -list.
	Doc string
	// Run inspects one package through pass and reports findings via
	// pass.Reportf. A returned error aborts the whole check (reserved
	// for analyzer bugs, not findings).
	Run func(pass *Pass) error
}

// A Pass carries one type-checked package to an analyzer's Run.
type Pass struct {
	// Analyzer is the pass's analyzer (for self-identification).
	Analyzer *Analyzer
	// Fset maps token positions for every file in the package.
	Fset *token.FileSet
	// Files are the package's parsed non-test files, with comments.
	Files []*ast.File
	// Pkg is the type-checker's package object.
	Pkg *types.Package
	// Info holds the type-checking facts for Files.
	Info *types.Info
	// PkgPath is the package's import path within the module.
	PkgPath string
	// ModuleDir is the root directory of the module the package
	// belongs to.
	ModuleDir string

	dirs   *directiveSet
	report func(Diagnostic)
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding: a file position, the analyzer that
// produced it, and the human-readable message.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Position
	// Analyzer names the producing analyzer (matched by allow
	// directives).
	Analyzer string
	// Message describes the contract violation.
	Message string
}

// String renders the diagnostic in the canonical qarvcheck line format.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Analyzers returns the full qarvcheck suite in report order. Each call
// returns a fresh unreached analyzer, which links the module's programs
// on the first package it checks.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		NondeterminismAnalyzer,
		CtxloopAnalyzer,
		ReseedAnalyzer,
		ErrstyleAnalyzer,
		DoccheckAnalyzer,
		newUnreachedAnalyzer(linkerReached),
	}
}

// Run executes the analyzers over the loaded packages, applies the
// //qarv:allow directives, and returns the surviving findings sorted
// by position. Malformed directives surface as findings from the
// pseudo-analyzer "qarvallow" and cannot themselves be suppressed.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		dirs := collectDirectives(pkg, analyzers)
		var pkgDiags []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				Info:      pkg.Info,
				PkgPath:   pkg.Path,
				ModuleDir: pkg.ModuleDir,
				dirs:      &dirs,
				report:    func(d Diagnostic) { pkgDiags = append(pkgDiags, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
		diags = append(diags, filterAllowed(pkgDiags, dirs)...)
		diags = append(diags, dirs.malformed...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}
