package schedule

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"torusx/internal/topology"
)

func TestJSONRoundTrip(t *testing.T) {
	tor := topology.MustNew(8, 8)
	sc := &Schedule{
		Fabric: tor,
		Phases: []Phase{
			{Name: "group-1", Steps: []Step{
				{Transfers: []Transfer{
					{Src: 0, Dst: 32, Dim: 1, Dir: topology.Pos, Hops: 4, Blocks: 32},
					{Src: 9, Dst: 41, Dim: 1, Dir: topology.Neg, Hops: 4, Blocks: 32},
				}},
			}},
			{Name: "bit", Steps: []Step{
				{Transfers: []Transfer{{Src: 1, Dst: 2, Dim: 0, Dir: topology.Pos, Hops: 1, Blocks: 16}}},
				{}, // empty step survives the round trip
			}},
		},
	}
	var buf bytes.Buffer
	if err := sc.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"dims": [`) || !strings.Contains(buf.String(), `"group-1"`) {
		t.Fatalf("unexpected JSON:\n%s", buf.String())
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Fabric.String() != "8x8" {
		t.Fatalf("torus = %s", back.Fabric)
	}
	if len(back.Phases) != 2 || back.Phases[0].Name != "group-1" {
		t.Fatalf("phases = %+v", back.Phases)
	}
	if back.NumSteps() != sc.NumSteps() {
		t.Fatalf("steps %d != %d", back.NumSteps(), sc.NumSteps())
	}
	got := back.Phases[0].Steps[0].Transfers
	want := sc.Phases[0].Steps[0].Transfers
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("transfer %d: %+v != %+v", i, got[i], want[i])
		}
	}
	// Aggregates and checks behave identically on the reconstruction.
	if back.SumMaxBlocks() != sc.SumMaxBlocks() {
		t.Fatal("aggregate mismatch after round trip")
	}
	if err := back.Check(); err != nil {
		t.Fatalf("reconstructed schedule should check clean: %v", err)
	}
}

func TestReadJSONErrors(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("not json")); err == nil {
		t.Fatal("bad JSON should fail")
	}
	if _, err := ReadJSON(strings.NewReader(`{"dims": [], "phases": []}`)); err == nil {
		t.Fatal("empty dims should fail")
	}
	// Payload pairs outside the fabric's [0, n)² have no dense id; [0, 4]
	// on a 4-node ring would otherwise alias block [1, 0].
	for _, pair := range []string{"[0, 4]", "[4, 0]", "[-1, 2]", "[2, -1]"} {
		in := `{"version": 2, "fabric": {"kind": "torus", "dims": [4]}, "phases": [{"name": "p", "steps": [{"transfers": [` +
			`{"src": 0, "dst": 1, "dim": 0, "dir": "+", "hops": 1, "blocks": 1, "payload": [` + pair + `]}]}]}]}`
		if _, err := ReadJSON(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "outside a 4-node fabric") {
			t.Errorf("payload %s: err = %v, want an out-of-range rejection", pair, err)
		}
	}
}
