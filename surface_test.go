package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// surfaceAllowlist names the exported top-level functions of internal/
// packages that no non-test code outside their package calls, each with why
// it stays exported. An entry must be called by a test in another package
// and by no non-test code outside its own: anything else fails
// TestInternalSurface, so the list cannot outlive its reasons.
var surfaceAllowlist = map[string]string{
	"repro/internal/dnssec.ReadCounts": "the process's ECDSA counts; the campaign benchmarks report them per op " +
		"and core's tests pin them, and no program prints them yet",
}

// TestInternalSurface keeps the internal/ packages' exported surface to what
// the rest of the program uses. It parses every Go file of the module and of
// bench/ (parsing only: nothing is built) and fails on an exported top-level
// function of an internal/ package that no non-test file outside that
// package references, unless surfaceAllowlist names it, and on an allowlist
// entry that no longer holds.
func TestInternalSurface(t *testing.T) {
	decls := map[string]bool{}   // "repro/internal/pkg.Func"
	used := map[string]bool{}    // referenced by non-test code outside its package
	testUse := map[string]bool{} // referenced by a test file outside its package
	type file struct {
		dir  string
		test bool
		ast  *ast.File
	}
	var files []file
	pkgNames := map[string]string{} // import path → package name
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := path.Join("repro", filepath.ToSlash(filepath.Dir(p)))
		test := strings.HasSuffix(name, "_test.go")
		files = append(files, file{dir, test, f})
		if test || !strings.HasPrefix(dir, "repro/internal/") {
			return nil
		}
		pkgNames[dir] = f.Name.Name
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() {
				decls[dir+"."+fd.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		imports := map[string]string{} // local name → import path
		for _, imp := range f.ast.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if !strings.HasPrefix(p, "repro/internal/") || p == f.dir {
				continue
			}
			local := pkgNames[p]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = p
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
				key := imports[x.Name] + "." + sel.Sel.Name
				if f.test {
					testUse[key] = true
				} else {
					used[key] = true
				}
			}
			return true
		})
	}

	var bad []string
	for fn := range decls {
		if !used[fn] && surfaceAllowlist[fn] == "" {
			bad = append(bad, fn+": no non-test code outside its package calls it; unexport or delete it")
		}
	}
	for fn, reason := range surfaceAllowlist {
		switch {
		case !decls[fn]:
			bad = append(bad, fn+": allowlisted but not an exported top-level function of internal/")
		case used[fn]:
			bad = append(bad, fn+": allowlisted but called by non-test code outside its package")
		case !testUse[fn]:
			bad = append(bad, fn+": allowlisted but no test outside its package calls it")
		case strings.TrimSpace(reason) == "":
			bad = append(bad, fn+": allowlisted without a reason")
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(strings.TrimPrefix(b, "repro/"))
	}
}
