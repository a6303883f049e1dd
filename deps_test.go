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

// TestProductionLinksNoOracle: the reference engines in
// internal/oracle stay out of every production build. One offline go
// list of the module gives each package's non-test imports,
// transitively; only cmd/aapetab, whose Table 1 measures the paper's
// costs on the independent block simulator, and the oracle itself may
// reach it. The same listing holds the library and the packages a
// serving process imports (the algorithm registry and the program
// cache) to linking no network stack, so a process that imports them
// starts without net/http's and crypto/tls's initialization and text.
// Only cmd/aapebench, whose -pprof endpoint serves HTTP, links one.
func TestProductionLinksNoOracle(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go command not found")
	}
	list := exec.Command(gobin, "list", "-f", "{{.ImportPath}}{{range .Deps}} {{.}}{{end}}", "./...")
	list.Env = append(os.Environ(), "GOPROXY=off")
	out, err := list.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	const oracle = "torusx/internal/oracle"
	mayLinkOracle := map[string]bool{"torusx/cmd/aapetab": true, oracle: true}
	lean := map[string]bool{"torusx": true, "torusx/internal/algorithm": true, "torusx/internal/progcache": true}
	banned := map[string]bool{"net": true, "net/http": true, "crypto/tls": true, "expvar": true}
	leanSeen := 0
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		pkg, deps, _ := strings.Cut(line, " ")
		if lean[pkg] {
			leanSeen++
		}
		for _, dep := range strings.Fields(deps) {
			if dep == oracle && !mayLinkOracle[pkg] {
				t.Errorf("%s links %s; only tests and cmd/aapetab may", pkg, oracle)
			}
			if lean[pkg] && banned[dep] {
				t.Errorf("%s links %s", pkg, dep)
			}
		}
	}
	if leanSeen != len(lean) {
		t.Fatalf("go list reported %d of the %d lean packages:\n%s", leanSeen, len(lean), out)
	}
}

// TestNoProductionExecRun: every production schedule reaches the
// executor through the algorithm registry (algorithm.BuildProgram or
// BuildSparseProgram), so it is cached, stored on the disk tier and
// timed in stages. exec.Run compiles afresh and bypasses all of that,
// so it is for tests only. (The reference engines in internal/oracle
// are kept out by TestProductionLinksNoOracle; exec.Run cannot move
// there, because package exec's own tests use it.) The test parses
// every non-test file of the module (other modules, such as
// benchmark/, and testdata excluded) and fails on any call of a banned
// function through an import of its package; a package's calls of its
// own functions are unqualified and never match.
func TestNoProductionExecRun(t *testing.T) {
	banned := []struct{ pkg, fn, use string }{
		{"torusx/internal/exec", "Run", "build through algorithm.BuildProgram"},
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
