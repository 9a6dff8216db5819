package lint

import (
	"go/ast"
	"go/token"
)

// DoccheckAnalyzer is the repository's godoc contract: every exported
// top-level identifier — functions, methods on exported types, type
// specs, const/var specs — must carry a doc comment. A doc comment on a
// grouped declaration block documents every spec in the block, as godoc
// renders it.
var DoccheckAnalyzer = &Analyzer{
	Name: "doccheck",
	Doc:  "exported identifiers must have doc comments (the repository's godoc contract)",
	Run:  runDoccheck,
}

// runDoccheck applies the doc-comment check to every file of the
// package.
func runDoccheck(pass *Pass) error {
	for _, f := range pass.Files {
		doccheckFile(pass, f)
	}
	return nil
}

// doccheckFile reports each exported top-level declaration in f that
// lacks a doc comment.
func doccheckFile(pass *Pass, f *ast.File) {
	report := func(pos token.Pos, what, name string) {
		pass.Reportf(pos, "exported %s %s is missing a doc comment", what, name)
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || !exportedReceiver(d) {
				continue
			}
			if d.Doc == nil {
				what := "function"
				if d.Recv != nil {
					what = "method"
				}
				report(d.Pos(), what, d.Name.Name)
			}
		case *ast.GenDecl:
			if d.Doc != nil {
				// A block-level comment documents every spec in the
				// group, as godoc renders it.
				continue
			}
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && s.Doc == nil {
						report(s.Pos(), "type", s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, name := range s.Names {
						if name.IsExported() && s.Doc == nil && s.Comment == nil {
							report(name.Pos(), declWhat(d.Tok), name.Name)
						}
					}
				}
			}
		}
	}
}

// exportedReceiver reports whether a method's receiver type is exported
// (methods on unexported types are not part of the package's godoc
// surface). Plain functions pass trivially.
func exportedReceiver(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr: // generic receiver
			t = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return true
		}
	}
}

// declWhat labels a value declaration for the report line.
func declWhat(tok token.Token) string {
	if tok == token.CONST {
		return "const"
	}
	return "var"
}
