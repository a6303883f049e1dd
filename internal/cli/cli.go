// Package cli holds the small helpers shared by the command-line
// tools: fabric, torus-shape and traffic-spec parsing and
// exit-with-message.
package cli

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"torusx/internal/topology"
	"torusx/internal/traffic"
)

// RegisterTraffic registers the shared -traffic flag on fs and returns
// the spec destination. The empty spec selects each tool's legacy
// dense all-to-all path; any other value is parsed per fabric with
// ResolveTraffic.
func RegisterTraffic(fs *flag.FlagSet) *string {
	return fs.String("traffic", "", traffic.SpecHelp)
}

// RegisterCacheDir registers the shared -progcache-dir flag on fs and
// returns the directory destination. A non-empty directory attaches a
// disk-backed second tier to the process-wide compiled-program cache
// (algorithm.SetCacheDir): cold processes read and decode serialized
// programs from it instead of recompiling, and fresh compiles are
// written back for the next process. Empty keeps the cache
// memory-only.
func RegisterCacheDir(fs *flag.FlagSet) *string {
	return fs.String("progcache-dir", "", "directory for the disk-backed compiled-program cache tier (empty = memory only)")
}

// ResolveTraffic parses a -traffic spec against a concrete fabric's
// node count.
func ResolveTraffic(spec string, f topology.Fabric) (traffic.Matrix, error) {
	return traffic.ParseSpec(spec, f.Nodes())
}

// ParseDims parses a torus shape like "12x8x4" into dimension sizes.
func ParseDims(s string) ([]int, error) {
	parts := strings.Split(strings.ToLower(strings.TrimSpace(s)), "x")
	if len(parts) == 0 || parts[0] == "" {
		return nil, fmt.Errorf("empty torus shape")
	}
	dims := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad dimension %q in %q", p, s)
		}
		if v < 1 {
			return nil, fmt.Errorf("dimension %d must be >= 1 in %q", v, s)
		}
		dims[i] = v
	}
	return dims, nil
}

// ParseFabric resolves a -fabric/-dims flag pair to a concrete fabric:
// kind "torus" (or "") builds a torus from an n-dimensional shape like
// "12x8x4"; kind "dragonfly" (or "d3") builds a swapped dragonfly
// D3(K,M) from a two-part shape "KxM".
func ParseFabric(kind, dims string) (topology.Fabric, error) {
	sizes, err := ParseDims(dims)
	if err != nil {
		return nil, err
	}
	switch strings.ToLower(strings.TrimSpace(kind)) {
	case "", "torus":
		return topology.New(sizes...)
	case "dragonfly", "d3":
		if len(sizes) != 2 {
			return nil, fmt.Errorf("dragonfly shape must be KxM, got %q", dims)
		}
		return topology.NewDragonfly(sizes[0], sizes[1])
	}
	return nil, fmt.Errorf("unknown fabric %q (have torus, dragonfly)", kind)
}

// Fatalf prints to stderr and exits 1.
func Fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
