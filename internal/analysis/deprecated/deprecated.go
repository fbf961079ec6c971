// Package deprecated flags uses of symbols whose doc comment carries a
// "Deprecated:" marker, so a compatibility shim keeps its old callers
// working without gaining new ones. The index is built
// from every package the loader materialized, so facade re-exports and
// cross-package calls are caught; the deprecated symbol's own
// declaration (its compatibility-shim body) is exempt.
package deprecated

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"edram/internal/analysis"
)

// Analyzer is the deprecated pass.
var Analyzer = &analysis.Analyzer{
	Name: "deprecated",
	Doc:  "flag uses of symbols documented as Deprecated:",
	Run:  run,
}

// entry records one deprecated symbol: its note and the source range of
// its declaration (uses inside it are the shim itself).
type entry struct {
	note    string
	declPos token.Pos
	declEnd token.Pos
}

func run(pass *analysis.Pass) error {
	index := buildIndex(pass.All)
	info := pass.Info()
	for _, f := range pass.Files() {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := info.Uses[id]
			if obj == nil {
				return true
			}
			e, ok := index[obj]
			if !ok {
				return true
			}
			if id.Pos() >= e.declPos && id.Pos() <= e.declEnd {
				return true // inside the deprecated declaration itself
			}
			msg := fmt.Sprintf("%s is deprecated", obj.Name())
			if e.note != "" {
				msg += ": " + e.note
			}
			pass.Report(analysis.Diagnostic{Pos: id.Pos(), Message: msg})
			return true
		})
	}
	return nil
}

// buildIndex scans every loaded package for Deprecated: declarations.
func buildIndex(all []*analysis.Package) map[types.Object]entry {
	index := map[types.Object]entry{}
	add := func(pkg *analysis.Package, id *ast.Ident, doc *ast.CommentGroup, declPos, declEnd token.Pos) {
		note, ok := deprecationNote(doc)
		if !ok || id == nil {
			return
		}
		obj := pkg.Info.Defs[id]
		if obj == nil {
			return
		}
		index[obj] = entry{note: note, declPos: declPos, declEnd: declEnd}
	}
	for _, pkg := range all {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					add(pkg, d.Name, d.Doc, d.Pos(), d.End())
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.ValueSpec:
							doc := s.Doc
							if doc == nil {
								doc = d.Doc
							}
							for _, name := range s.Names {
								add(pkg, name, doc, d.Pos(), d.End())
							}
						case *ast.TypeSpec:
							doc := s.Doc
							if doc == nil {
								doc = d.Doc
							}
							add(pkg, s.Name, doc, d.Pos(), d.End())
						}
					}
				}
			}
		}
	}
	return index
}

// deprecationNote extracts the first line of a "Deprecated:" paragraph.
func deprecationNote(doc *ast.CommentGroup) (string, bool) {
	if doc == nil {
		return "", false
	}
	for _, line := range strings.Split(doc.Text(), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "Deprecated:"); ok {
			return strings.TrimSpace(rest), true
		}
	}
	return "", false
}
