package cli

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"torusx/internal/topology"
)

// The -dims and -fabric flag parsers take raw user input: every input
// must return an error or a value that passes the package's own
// validation, never panic. Seeds are the shapes the cmd tools' usage
// text shows.

// FuzzParseDims: an accepted shape has at least one dimension, every
// size is at least 1, and printing it back as "AxBxC" parses to the
// same sizes.
func FuzzParseDims(f *testing.F) {
	for _, s := range []string{"12x12", "12x8x4", "8x8", "16x16", "4x4x4", "2x4", "12X8", " 4x4 ", "12 x 8", "", "x", "0x4", "-1", "4x"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		dims, err := ParseDims(s)
		if err != nil {
			return
		}
		if len(dims) == 0 {
			t.Fatalf("ParseDims(%q) accepted no dimensions", s)
		}
		parts := make([]string, len(dims))
		for i, d := range dims {
			if d < 1 {
				t.Fatalf("ParseDims(%q) = %v: size below 1", s, dims)
			}
			parts[i] = strconv.Itoa(d)
		}
		again, err := ParseDims(strings.Join(parts, "x"))
		if err != nil || !slices.Equal(again, dims) {
			t.Fatalf("ParseDims(%q) = %v does not round-trip: %v, %v", s, dims, again, err)
		}
	})
}

// FuzzParseFabric: an accepted fabric has between 1 and
// topology.MaxNodes nodes, and the flag pair its fingerprint names
// ("torus:AxB", "d3:KxM") parses back to the same fabric.
func FuzzParseFabric(f *testing.F) {
	for _, c := range [][2]string{
		{"torus", "12x12"}, {"torus", "12x8x4"}, {"", "8x8"}, {"dragonfly", "2x4"}, {"d3", "2x3"},
		{"dragonfly", "4x4x4"}, {"mesh", "4x4"}, {"torus", "65536x65536"}, {"dragonfly", "100000x100000"},
	} {
		f.Add(c[0], c[1])
	}
	f.Fuzz(func(t *testing.T, kind, dims string) {
		fab, err := ParseFabric(kind, dims)
		if err != nil {
			return
		}
		if n := fab.Nodes(); n < 1 || n > topology.MaxNodes {
			t.Fatalf("ParseFabric(%q, %q) = %s with %d nodes", kind, dims, fab.Fingerprint(), n)
		}
		fk, fd, ok := strings.Cut(fab.Fingerprint(), ":")
		if !ok {
			t.Fatalf("fingerprint %q names no kind", fab.Fingerprint())
		}
		again, err := ParseFabric(fk, fd)
		if err != nil || again.Fingerprint() != fab.Fingerprint() || again.Nodes() != fab.Nodes() {
			t.Fatalf("ParseFabric(%q, %q) = %s does not round-trip: %v", kind, dims, fab.Fingerprint(), err)
		}
	})
}
