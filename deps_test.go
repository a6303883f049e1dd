package torusx

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestLibraryLinksNoNetworkStack: the library and the packages a
// serving process imports (the algorithm registry and the program
// cache) link no network stack, so a process that imports them starts
// without net/http's and crypto/tls's initialization and text. Only
// cmd/aapebench, whose -pprof endpoint serves HTTP, links one.
func TestLibraryLinksNoNetworkStack(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go command not found")
	}
	out, err := exec.Command(gobin, "list", "-deps", "torusx", "./internal/algorithm", "./internal/progcache").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	banned := map[string]bool{"net": true, "net/http": true, "crypto/tls": true, "expvar": true}
	for _, pkg := range strings.Fields(string(out)) {
		if banned[pkg] {
			t.Errorf("the library links %s", pkg)
		}
	}
}

// TestNoProductionExecRun: every production schedule reaches the
// executor through the algorithm registry (algorithm.BuildProgram or
// BuildSparseProgram), so it is cached, stored on the disk tier and
// timed in stages. The calls in banned bypass all of that and are for
// tests only: exec.Run compiles afresh, and the block-level simulator's
// RunSparse and RunWithBuffers are the reference the compiled programs
// are held to. (exchange.Run, the paper's reference run, stays allowed.)
// The test parses every non-test file of the module (other modules,
// such as benchmark/, and testdata excluded) and fails on any call of a
// banned function through an import of its package; a package's calls
// of its own functions are unqualified and never match.
func TestNoProductionExecRun(t *testing.T) {
	banned := []struct{ pkg, fn, use string }{
		{"torusx/internal/exec", "Run", "build through algorithm.BuildProgram"},
		{"torusx/internal/exchange", "RunSparse", "replay algorithm.BuildSparseProgram"},
		{"torusx/internal/exchange", "RunWithBuffers", "replay algorithm.BuildSparseProgram"},
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // another module, such as benchmark/
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
		local := map[string]string{} // import name in this file -> package path
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			local[name] = p
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			for _, b := range banned {
				if local[id.Name] == b.pkg && sel.Sel.Name == b.fn {
					t.Errorf("%s: production call of %s.%s; %s", fset.Position(call.Pos()), b.pkg, b.fn, b.use)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
