package schedule_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"torusx/internal/baseline"
	"torusx/internal/schedule"
	"torusx/internal/topology"
)

var update = flag.Bool("update", false, "rewrite golden files")

// checkGolden compares sc's WriteJSON bytes with testdata/name, which
// -update rewrites. The golden files are the compatibility contract
// for external consumers of aapetrace -json; regenerate them
// deliberately with
//
//	go test ./internal/schedule -run 'GoldenJSON|DragonflyJSON' -update
func checkGolden(t *testing.T, sc *schedule.Schedule, name string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := sc.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("emitted JSON differs from %s (run with -update to accept):\n%s", golden, buf.String())
	}
	return buf.String()
}

// TestDirectScheduleGoldenJSON pins the JSON wire format of a
// baseline-emitted schedule: the Direct builder on a 4x4 torus, with
// Shared steps, payload annotations and multi-segment routes all
// present.
func TestDirectScheduleGoldenJSON(t *testing.T) {
	sc, err := schedule.Collect(topology.MustNew(4, 4), baseline.EmitDirect)
	if err != nil {
		t.Fatal(err)
	}
	out := checkGolden(t, sc, "direct_4x4.json")
	// The current encoding is version-2: explicit schema version plus a
	// fabric descriptor.
	if !strings.Contains(out, `"version": 2`) {
		t.Fatal("golden file lacks the version field")
	}
	if !strings.Contains(out, `"kind": "torus"`) {
		t.Fatal("golden file lacks the fabric descriptor")
	}
}

// TestDragonflyJSONRoundTrip pins the second fabric kind in the
// descriptor: a D3(1,2) schedule with a multi-leg route, a shared step,
// a payload and a rearrangement count writes the committed golden
// bytes, and the descriptor in them rebuilds the same fabric.
func TestDragonflyJSONRoundTrip(t *testing.T) {
	sc := &schedule.Schedule{Fabric: topology.MustNewDragonfly(1, 2), Phases: []schedule.Phase{{
		Name: "x", Rearrange: 2,
		Steps: []schedule.Step{{Shared: true, Transfers: []schedule.Transfer{
			{Src: 0, Dst: 3, Dim: 0, Dir: topology.Pos, Hops: 1, Blocks: 1, Payload: []int32{3},
				Segs: []schedule.Seg{{Dim: 0, Dir: topology.Pos, Hops: 1}, {Dim: 1, Dir: topology.Pos, Hops: 1}}},
		}}},
	}}}
	out := checkGolden(t, sc, "dragonfly_1x2.json")
	var desc struct {
		Fabric struct {
			Kind string
			K, M int
		}
	}
	if err := json.Unmarshal([]byte(out), &desc); err != nil {
		t.Fatal(err)
	}
	if desc.Fabric.Kind != "dragonfly" {
		t.Fatalf("fabric kind %q, want dragonfly", desc.Fabric.Kind)
	}
	back, err := topology.NewDragonfly(desc.Fabric.K, desc.Fabric.M)
	if err != nil || back.Fingerprint() != sc.Fabric.Fingerprint() {
		t.Fatalf("descriptor rebuilds %v (%v), want %s", back, err, sc.Fabric.Fingerprint())
	}
}
