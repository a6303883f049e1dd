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
// executor through the algorithm registry (algorithm.BuildProgram), so
// it is cached, stored on the disk tier and timed in stages. exec.Run,
// which compiles afresh outside all of that, is for tests only. The
// test parses every non-test file of the module (other modules, such as
// benchmark/, testdata and internal/exec itself excluded) and fails on
// any call of Run on an import of torusx/internal/exec.
func TestNoProductionExecRun(t *testing.T) {
	const execPath = "torusx/internal/exec"
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || path == filepath.Join("internal", "exec") {
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
		local := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == execPath {
				local = "exec"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Run" {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == local {
					t.Errorf("%s: production call of %s.Run; build through algorithm.BuildProgram", fset.Position(call.Pos()), execPath)
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
