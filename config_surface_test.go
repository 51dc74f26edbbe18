package mantle

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestEveryOptionIsSet keeps the internal config surface from regrowing:
// every exported field of a struct named *Config or CallOpts declared
// under internal/ must be set — as a composite-literal key or an
// assignment target — from a package other than the one declaring the
// struct, or from a _test.go, examples/ or benchmark/ file. A field only
// its own package's defaulting touches is a constant with extra steps.
func TestEveryOptionIsSet(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole tree from source (~12s)")
	}
	fset := token.NewFileSet()

	// Parse every package directory once, with absolute file names so
	// declaration positions compare equal to the ones the source
	// importer reports for the same file.
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs := map[string][]*ast.File{}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name[0] == '.' || name[0] == '_') {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dirs[filepath.Dir(path)] = append(dirs[filepath.Dir(path)], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// The options: declaration position of each field -> its name.
	type option struct{ dir, name string }
	options := map[string]option{}
	for dir, files := range dirs {
		rel, _ := filepath.Rel(root, dir)
		if !strings.HasPrefix(filepath.ToSlash(rel), "internal/") {
			continue
		}
		for _, f := range files {
			if strings.HasSuffix(fset.File(f.Pos()).Name(), "_test.go") {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !(strings.HasSuffix(ts.Name.Name, "Config") || ts.Name.Name == "CallOpts") {
					return true
				}
				for _, fld := range st.Fields.List {
					for _, id := range fld.Names {
						if id.IsExported() {
							options[fset.Position(id.Pos()).String()] = option{
								dir:  dir,
								name: f.Name.Name + "." + ts.Name.Name + "." + id.Name,
							}
						}
					}
				}
				return true
			})
		}
	}
	if len(options) == 0 {
		t.Fatal("found no config structs under internal/")
	}

	// Type-check each package (its in-package tests included, an external
	// _test package separately) and collect the fields some outside
	// caller or test sets. Type errors are ignored: the build and vet
	// lanes own those, and a partial Info still records every field use.
	set := map[string]bool{}
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "source", nil),
		Error:    func(error) {},
	}
	for dir, files := range dirs {
		byPkg := map[string][]*ast.File{}
		for _, f := range files {
			byPkg[f.Name.Name] = append(byPkg[f.Name.Name], f)
		}
		for name, pkgFiles := range byPkg {
			info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
			conf.Check(dir+":"+name, fset, pkgFiles, info) // errors: see above
			mark := func(id *ast.Ident) {
				v, ok := info.Uses[id].(*types.Var)
				if !ok || !v.IsField() {
					return
				}
				key := fset.Position(v.Pos()).String()
				opt, ok := options[key]
				if !ok {
					return
				}
				if opt.dir != dir || strings.HasSuffix(fset.File(id.Pos()).Name(), "_test.go") {
					set[key] = true
				}
			}
			target := func(e ast.Expr) {
				if sel, ok := e.(*ast.SelectorExpr); ok {
					mark(sel.Sel)
				}
			}
			for _, f := range pkgFiles {
				ast.Inspect(f, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.KeyValueExpr:
						if id, ok := n.Key.(*ast.Ident); ok {
							mark(id)
						}
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							target(lhs)
						}
					case *ast.IncDecStmt:
						target(n.X)
					}
					return true
				})
			}
		}
	}

	var unset []string
	for key, opt := range options {
		if !set[key] {
			unset = append(unset, opt.name)
		}
	}
	sort.Strings(unset)
	for _, name := range unset {
		t.Errorf("%s: no caller outside its package and no test sets it; make it a constant", name)
	}
	t.Logf("%d options checked, %d unset", len(options), len(unset))
}
