package server

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
)

// TestNetworkDocListsEveryFrame: the two frame tables of docs/NETWORK.md
// list exactly the Msg* frame types wire.go declares, each under its byte
// and its name (MsgQuery is "`'Q'` | Query"), the client → server frames in
// the first table and the server → client frames in the second. A frame the
// code lacks may not keep a row.
func TestNetworkDocListsEveryFrame(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "wire.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("../../docs/NETWORK.md")
	if err != nil {
		t.Fatal(err)
	}
	// Each direction's frames, keyed by the line that heads its table in the
	// doc, as "`'Q'` Query".
	headings := map[string]string{"client → server": "Client → server:", "server → client": "Server → client:"}
	code := map[string]map[string]bool{}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		var heading string
		for dir, h := range headings {
			if strings.Contains(gd.Doc.Text(), "Frame types, "+dir) {
				heading = h
			}
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, name := range vs.Names {
				if !strings.HasPrefix(name.Name, "Msg") {
					continue
				}
				if heading == "" {
					t.Errorf("%s is declared outside the two frame-type blocks", name.Name)
					continue
				}
				var lit *ast.BasicLit
				if call, ok := vs.Values[i].(*ast.CallExpr); ok && len(call.Args) == 1 {
					lit, _ = call.Args[0].(*ast.BasicLit)
				}
				if lit == nil || lit.Kind != token.CHAR {
					t.Fatalf("%s is not declared as byte('x')", name.Name)
				}
				if code[heading] == nil {
					code[heading] = map[string]bool{}
				}
				code[heading]["`"+lit.Value+"` "+strings.TrimPrefix(name.Name, "Msg")] = true
			}
		}
	}
	if len(code) != len(headings) {
		t.Fatalf("found frame types for %d directions in wire.go, want %d", len(code), len(headings))
	}
	doc := strings.Split(string(raw), "\n")
	for _, heading := range headings {
		listed := frameTable(t, doc, heading)
		for row := range code[heading] {
			if !listed[row] {
				t.Errorf("docs/NETWORK.md: the table under %q has no row for %s", heading, row)
			}
		}
		for row := range listed {
			if !code[heading][row] {
				t.Errorf("docs/NETWORK.md: the table under %q lists %s, which wire.go does not declare", heading, row)
			}
		}
	}
}

// frameTable returns the frame rows of the table under heading in doc, each
// as its first two cells ("`'Q'` Query"), skipping the header and separator
// rows.
func frameTable(t *testing.T, doc []string, heading string) map[string]bool {
	t.Helper()
	at := -1
	for i, line := range doc {
		if strings.TrimSpace(line) == heading {
			at = i
		}
	}
	if at < 0 {
		t.Fatalf("docs/NETWORK.md has no line %q", heading)
	}
	rows := map[string]bool{}
	i := at + 1
	for i < len(doc) && strings.TrimSpace(doc[i]) == "" {
		i++
	}
	for ; i < len(doc) && strings.HasPrefix(doc[i], "|"); i++ {
		cells := strings.Split(doc[i], "|")
		if len(cells) < 3 {
			continue
		}
		if typ := strings.TrimSpace(cells[1]); strings.HasPrefix(typ, "`'") {
			rows[typ+" "+strings.TrimSpace(cells[2])] = true
		}
	}
	if len(rows) == 0 {
		t.Fatalf("docs/NETWORK.md lists no frames under %q", heading)
	}
	return rows
}
