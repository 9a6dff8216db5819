package lint

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
)

// newUnreachedAnalyzer returns the "only what runs" analyzer over the
// linker symbols reached returns for the module root: linkerReached in
// the suite, a fixed set in the golden test. It asks once, on the first
// package, so one analyzer serves one module. Code only tests call is
// unreached; a test oracle keeps itself with a reasoned
// //qarv:allow unreached, and an allow on a declaration some program
// reaches is itself a finding, so the exception list can only shrink.
func newUnreachedAnalyzer(reached func(moduleDir string) (map[string]bool, error)) *Analyzer {
	var set map[string]bool
	return &Analyzer{
		Name: "unreached",
		Doc:  "non-test funcs and methods outside main packages must be linked into some program of the module (every main and perfbench, by the linker's reachability); test oracles carry //qarv:allow unreached, and an allow on a reached declaration is a finding; no non-test code may look methods up through reflect, which keeps unreached methods linked",
		Run: func(pass *Pass) error {
			reportReflectMethods(pass)
			if pass.Pkg.Name() == "main" {
				return nil
			}
			if set == nil {
				var err error
				if set, err = reached(pass.ModuleDir); err != nil {
					return err
				}
			}
			for _, f := range pass.Files {
				for _, decl := range f.Decls {
					fn, ok := decl.(*ast.FuncDecl)
					if !ok || fn.Name.Name == "_" || fn.Recv == nil && fn.Name.Name == "init" {
						continue
					}
					name := funcSymbol(fn)
					pos := pass.Fset.Position(fn.Pos())
					if !set[pass.PkgPath+"."+name] {
						pass.Reportf(fn.Pos(), "%s is linked into no program of the module; delete it, or keep a test oracle with //qarv:allow unreached and the reason", name)
					} else if d, ok := pass.dirs.covering(pos, pass.Analyzer.Name); ok {
						// A stale allow belongs to the unsuppressible
						// qarvallow, as a malformed one does.
						pos.Line = d.line
						pass.report(Diagnostic{Pos: pos, Analyzer: allowAnalyzerName,
							Message: "qarv:allow unreached on " + name + ", which a program reaches; delete the directive"})
					}
				}
			}
			return nil
		},
	}
}

// reportReflectMethods reports every use of reflect's Method and
// MethodByName (on a Value or a Type), main packages included: a
// program that looks methods up by reflection makes the linker keep
// methods no call reaches, and the reached set can no longer show them
// unreached.
func reportReflectMethods(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
			if ok && fn.Pkg() != nil && fn.Pkg().Path() == "reflect" && (fn.Name() == "Method" || fn.Name() == "MethodByName") {
				pass.Reportf(sel.Pos(), "%s.%s makes the linker keep methods no call reaches, which unreached then cannot report; call the method through an interface", types.TypeString(pass.Info.TypeOf(sel.X), nil), fn.Name())
			}
			return true
		})
	}
}

// funcSymbol names a declaration as the linker does, less the package
// path: F, T.M or (*T).M, without a generic receiver's type parameters.
func funcSymbol(fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	star, ptr := t.(*ast.StarExpr)
	if ptr {
		t = star.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	recv := t.(*ast.Ident).Name
	if ptr {
		recv = "(*" + recv + ")"
	}
	return recv + "." + fn.Name.Name
}

// linkerReached returns the symbols the linker keeps across every main
// package of the module rooted at dir and of the modules nested in it.
func linkerReached(dir string) (map[string]bool, error) {
	modPath, err := modulePath(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, err
	}
	set := make(map[string]bool)
	err = filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); p != dir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(p, "go.mod")); err != nil {
			return nil
		}
		return dumpDeps(p, modPath, set)
	})
	return set, err
}

// dumpDeps links every main package of the module rooted at root into
// a temporary directory, with inlining off in modPath's packages so
// every call stays a call, and adds the linker's reached symbols to
// set.
func dumpDeps(root, modPath string, set map[string]bool) error {
	tmp, err := os.MkdirTemp("", "qarvcheck-unreached-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	cmd := exec.Command("go", "build", "-o", tmp+string(filepath.Separator),
		"-gcflags="+modPath+"/...=-l", "-ldflags=-dumpdep", "./...")
	cmd.Dir = root
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("unreached: go build in %s: %w", root, err)
	}
	var other bytes.Buffer
	parseErr := parseDumpdep(stderr, modPath, set, &other)
	// Drain what a failed parse left, or the build blocks on the pipe.
	_, _ = io.Copy(io.Discard, stderr)
	if err := cmd.Wait(); err != nil {
		return fmt.Errorf("unreached: go build in %s: %w\n%s", root, err, other.Bytes())
	}
	return parseErr
}

// The dump's symbol forms that do not name a declaration directly.
var (
	// dumpMarker is a trailing note such as " <UsedInIface>", which not
	// every Go release prints.
	dumpMarker = regexp.MustCompile(` <\w+>$`)
	// typeArgs is an innermost [...] of a generic instantiation.
	typeArgs = regexp.MustCompile(`\[[^][]*\]`)
	// closure is a closure, go/defer wrapper or method value inside its
	// function: .func1, .func1.2, .gowrap1, .deferwrap1, -fm.
	closure = regexp.MustCompile(`(\.(func|gowrap|deferwrap)?\d+)*(-fm)?$`)
)

// parseDumpdep adds to set each symbol of modPath's packages on either
// side of every "from -> to" edge that -ldflags=-dumpdep prints,
// normalized to the declaration it belongs to. Funcdata symbols keep
// their suffix, so they match no declaration: the linker shares them
// between functions whose data is identical, and an edge to
// experiments.Fig1.arginfo1 may come from any function with Fig1's
// argument layout. Lines that are not edges (package headers, build
// errors) go to other.
func parseDumpdep(r io.Reader, modPath string, set map[string]bool, other io.Writer) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		from, to, ok := strings.Cut(sc.Text(), " -> ")
		if !ok {
			fmt.Fprintln(other, sc.Text())
			continue
		}
		for _, s := range [2]string{from, to} {
			if rest, ok := strings.CutPrefix(s, modPath); !ok || rest == "" || rest[0] != '.' && rest[0] != '/' {
				continue
			}
			// The byte tests keep the regexps off the common symbol.
			if strings.HasSuffix(s, ">") {
				s = dumpMarker.ReplaceAllString(s, "")
			}
			for strings.Contains(s, "[") && typeArgs.MatchString(s) {
				s = typeArgs.ReplaceAllString(s, "")
			}
			if c := s[len(s)-1]; c >= '0' && c <= '9' || c == 'm' {
				s = closure.ReplaceAllString(s, "")
			}
			set[s] = true
		}
	}
	return sc.Err()
}
