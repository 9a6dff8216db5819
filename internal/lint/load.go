package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Loader errors.
var (
	// ErrNoGoMod marks a module root without a parseable go.mod.
	ErrNoGoMod = errors.New("lint: no module path found in go.mod")
	// ErrNotInModule marks an import path outside the loaded module
	// that the standard-library importer also does not know.
	ErrNotInModule = errors.New("lint: import path not in module or std")
	// ErrImportCycle marks a module-internal import cycle (the type
	// checker would reject it too; the loader reports it first).
	ErrImportCycle = errors.New("lint: import cycle")
)

// A Package is one loaded, type-checked module package: the parsed
// non-test files plus the type-checker's facts, everything an Analyzer
// needs.
type Package struct {
	// Path is the package's import path.
	Path string
	// ModuleDir is the root directory of the package's module.
	ModuleDir string
	// Fset is the loader's shared file set.
	Fset *token.FileSet
	// Files are the parsed non-test files, with comments, sorted by
	// file name.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info records the type-checking facts for Files.
	Info *types.Info
}

// A Loader parses and type-checks packages of one module using only
// the standard library: module-internal import paths resolve to
// directories under the module root, everything else is delegated to
// the compiler's source importer. Loaded packages are cached, so a
// whole-module load type-checks each package once.
type Loader struct {
	// ModulePath is the module's path from go.mod (import-path prefix
	// of every module package).
	ModulePath string
	// Dir is the module root directory.
	Dir string
	// Fset is the shared file set for all loaded packages.
	Fset *token.FileSet

	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader returns a loader rooted at the module in dir (go.mod must
// name the module path).
func NewLoader(dir string) (*Loader, error) {
	modPath, err := modulePath(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, err
	}
	return NewLoaderAt(modPath, dir), nil
}

// NewLoaderAt returns a loader treating dir as the root of a module
// named modPath, without consulting go.mod. The golden-file tests use
// it to present testdata trees under the real module's import paths.
func NewLoaderAt(modPath, dir string) *Loader {
	fset := token.NewFileSet()
	// The source importer type-checks std from $GOROOT/src; disabling
	// cgo selects the pure-Go variants (net's Go resolver and friends)
	// so packages like internal/stream load without a C toolchain.
	build.Default.CgoEnabled = false
	return &Loader{
		ModulePath: modPath,
		Dir:        dir,
		Fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
	}
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			p := strings.TrimSpace(rest)
			p = strings.Trim(p, `"`)
			if p != "" {
				return p, nil
			}
		}
	}
	return "", fmt.Errorf("%w: %s", ErrNoGoMod, gomod)
}

// LoadAll walks the module tree and loads every package (directory
// with non-test .go files), skipping testdata, hidden, and VCS
// directories — the same universe `go list ./...` sees. Packages come
// back sorted by import path.
func (l *Loader) LoadAll() ([]*Package, error) {
	var paths []string
	err := filepath.WalkDir(l.Dir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.Dir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoFiles(p) {
			rel, err := filepath.Rel(l.Dir, p)
			if err != nil {
				return err
			}
			paths = append(paths, l.importPathFor(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	pkgs := make([]*Package, 0, len(paths))
	for _, path := range paths {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// importPathFor maps a module-root-relative directory to its import
// path.
func (l *Loader) importPathFor(rel string) string {
	rel = filepath.ToSlash(rel)
	if rel == "." {
		return l.ModulePath
	}
	return l.ModulePath + "/" + rel
}

// hasGoFiles reports whether dir contains at least one non-test .go
// file.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// Load parses and type-checks the module package with the given import
// path (cached across calls).
func (l *Loader) Load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("%w through %s", ErrImportCycle, path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
	if rel == "" {
		rel = "."
	}
	dir := filepath.Join(l.Dir, filepath.FromSlash(rel))

	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no buildable Go files in %s", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: moduleImporter{l},
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, errors.Join(typeErrs...))
	}
	pkg := &Package{
		Path:      path,
		ModuleDir: l.Dir,
		Fset:      l.Fset,
		Files:     files,
		Types:     tpkg,
		Info:      info,
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// parseDir parses the non-test .go files of dir in file-name order,
// honoring build constraints (//go:build lines and _GOOS/_GOARCH file
// suffixes) for the host platform, exactly as `go build` would — a
// package with platform-split files must not type-check both variants
// of the same declaration at once.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			if match, err := build.Default.MatchFile(dir, name); err != nil || !match {
				continue
			}
			names = append(names, name)
		}
	}
	sort.Strings(names)
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// moduleImporter resolves module-internal import paths through the
// loader and everything else through the source importer.
type moduleImporter struct{ l *Loader }

// Import implements types.Importer.
func (m moduleImporter) Import(path string) (*types.Package, error) {
	l := m.l
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	pkg, err := l.std.Import(path)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrNotInModule, path, err)
	}
	return pkg, nil
}
