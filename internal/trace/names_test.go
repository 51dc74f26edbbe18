package trace

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// stages is the span-name registry: every name a program call site may
// pass to Start or StartAt.
var stages = []string{PathResolve, TxnCommit, RaftPropose, CacheInvalidate, RPC}

// TestSpanNamesDocumented holds DESIGN.md §6's list of recorded stages
// ("The recorded stages are …") to exactly the registry.
func TestSpanNamesDocumented(t *testing.T) {
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(design)
	i := strings.Index(text, "## 6. Observability")
	if i < 0 {
		t.Fatal("DESIGN.md has no §6")
	}
	text = text[i:]
	j := strings.Index(text, "The recorded stages are")
	if j < 0 {
		t.Fatal("DESIGN.md §6 lists no recorded stages")
	}
	sentence := text[j : j+strings.Index(text[j:], ".\n")]
	var documented []string
	for _, m := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(sentence, -1) {
		documented = append(documented, m[1])
	}
	slices.Sort(documented)
	want := slices.Clone(stages)
	slices.Sort(want)
	if !slices.Equal(documented, want) {
		t.Fatalf("DESIGN.md §6 lists stages %v, the registry has %v", documented, want)
	}
}

// TestNoLiteralSpanNames walks the module's program files: every
// trace.Start / trace.StartAt names its span with a registry constant,
// never a string literal.
func TestNoLiteralSpanNames(t *testing.T) {
	fset := token.NewFileSet()
	calls := 0
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "../.." && (name == "benchmark" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) < 2 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || (sel.Sel.Name != "Start" && sel.Sel.Name != "StartAt") {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "trace" {
				return true
			}
			calls++
			if lit, ok := call.Args[1].(*ast.BasicLit); ok {
				t.Errorf("%s: span named by the literal %s", fset.Position(call.Pos()), lit.Value)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("found no trace.Start call sites")
	}
}
