package torusx

import (
	"os/exec"
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
