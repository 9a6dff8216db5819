package lint

import (
	"go/token"
	"strings"
)

// AllowPrefix is the suppression-directive comment prefix. A directive
//
//	//qarv:allow <analyzer> <reason>
//
// on a line (or on the line directly above it) suppresses that
// analyzer's findings on the line. The reason is mandatory — an
// unexplained allowance is exactly the contract rot the suite exists
// to prevent — and the analyzer must be one qarvcheck knows, so typos
// cannot silently disable nothing.
const AllowPrefix = "//qarv:allow"

// allowAnalyzerName is the pseudo-analyzer that owns malformed-
// directive findings. It is not suppressible: a broken allow cannot
// allow itself.
const allowAnalyzerName = "qarvallow"

// directive is one parsed, well-formed allow directive.
type directive struct {
	file     string
	line     int
	analyzer string
}

// directiveSet is every directive in a package, plus the findings for
// the malformed ones.
type directiveSet struct {
	allows    []directive
	malformed []Diagnostic
}

// covering returns the directive that allows analyzer's findings at
// pos: one on the same line or on the line directly above.
func (s *directiveSet) covering(pos token.Position, analyzer string) (directive, bool) {
	for _, d := range s.allows {
		if d.analyzer == analyzer && d.file == pos.Filename && (d.line == pos.Line || d.line+1 == pos.Line) {
			return d, true
		}
	}
	return directive{}, false
}

// collectDirectives scans a package's comments for allow directives,
// validating each against the analyzer set.
func collectDirectives(pkg *Package, analyzers []*Analyzer) directiveSet {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var set directiveSet
	report := func(pos token.Position, msg string) {
		set.malformed = append(set.malformed, Diagnostic{Pos: pos, Analyzer: allowAnalyzerName, Message: msg})
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, AllowPrefix)
				if !ok {
					continue
				}
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					// //qarv:allowance or similar — not this directive.
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					report(pos, "qarv:allow directive names no analyzer")
					continue
				}
				name := fields[0]
				if !known[name] {
					report(pos, "qarv:allow directive names unknown analyzer "+quote(name))
					continue
				}
				if len(fields) < 2 {
					report(pos, "qarv:allow "+name+" carries no reason — every allowance must say why")
					continue
				}
				set.allows = append(set.allows, directive{file: pos.Filename, line: pos.Line, analyzer: name})
			}
		}
	}
	return set
}

// quote wraps a name in double quotes for a report message.
func quote(s string) string { return `"` + s + `"` }

// filterAllowed drops diagnostics covered by a directive on the same
// line or the line directly above.
func filterAllowed(diags []Diagnostic, dirs directiveSet) []Diagnostic {
	kept := diags[:0]
	for _, d := range diags {
		if _, ok := dirs.covering(d.Pos, d.Analyzer); !ok {
			kept = append(kept, d)
		}
	}
	return kept
}
