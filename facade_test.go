package moment

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// facadeRef matches a use of the facade, "moment.X", continued as a slash
// list in README prose ("moment.MGIDS / MHyperion / DistDGL").
var facadeRef = regexp.MustCompile(`moment\.[A-Z]\w*(?:\s*/\s*[A-Z]\w*)*`)

// TestFacadeHasNoUnusedExports keeps the root facade to what its users
// reach: every exported name must be referenced from cmd/, examples/ or
// README.md, or appear in the signature of an export that is.
func TestFacadeHasNoUnusedExports(t *testing.T) {
	decls := facadeDecls(t)
	used := map[string]bool{}
	var queue []string
	mark := func(name string) {
		if _, ok := decls[name]; ok && !used[name] {
			used[name] = true
			queue = append(queue, name)
		}
	}
	sources := []string{"README.md"}
	for _, dir := range []string{"cmd", "examples"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err == nil && strings.HasSuffix(path, ".go") {
				sources = append(sources, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, path := range sources {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, ref := range facadeRef.FindAllString(string(src), -1) {
			for _, name := range regexp.MustCompile(`[A-Z]\w*`).FindAllString(strings.TrimPrefix(ref, "moment."), -1) {
				mark(name)
			}
		}
	}
	// A used export keeps the facade names its signature is written in
	// (Optimize keeps Plan and Option); qualified names live elsewhere.
	for len(queue) > 0 {
		name := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if decls[name] == nil {
			continue
		}
		ast.Inspect(decls[name], func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				mark(id.Name)
			}
			_, qualified := n.(*ast.SelectorExpr)
			return !qualified
		})
	}

	var unused []string
	for name := range decls {
		if !used[name] {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("%d facade exports have no caller in cmd/, examples/ or README.md and appear in no used signature: %s",
			len(unused), strings.Join(unused, ", "))
	}
}

// facadeDecls maps each exported top-level name of the root package's
// non-test files to the type expression of its declaration (nil for an
// untyped const or var).
func facadeDecls(t *testing.T) map[string]ast.Node {
	t.Helper()
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	decls := map[string]ast.Node{}
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					decls[d.Name.Name] = d.Type
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							decls[s.Name.Name] = s.Type
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								decls[n.Name] = s.Type
							}
						}
					}
				}
			}
		}
	}
	if len(decls) == 0 {
		t.Fatal("no facade exports found")
	}
	return decls
}
