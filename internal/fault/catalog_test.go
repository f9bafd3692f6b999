package fault

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestCatalogDocumentsEveryPoint: every point name declared in points.go
// has a row in the point table of docs/FAULTS.md.
func TestCatalogDocumentsEveryPoint(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "points.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile("../../docs/FAULTS.md")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	ast.Inspect(f, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatal(err)
			}
			names = append(names, name)
		}
		return true
	})
	if len(names) == 0 {
		t.Fatal("no point names found in points.go")
	}
	for _, name := range names {
		if !strings.Contains(string(doc), "\n| `"+name+"` |") {
			t.Errorf("docs/FAULTS.md has no catalog row for point %q", name)
		}
	}
}
