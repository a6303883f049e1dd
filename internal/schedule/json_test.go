package schedule

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"torusx/internal/topology"
)

// TestJSONRoundTrip decodes WriteJSON's output with encoding/json into
// the wire types and checks that every field the schedule carries
// arrives: the version and fabric descriptor, phase names and
// rearrangement counts, Shared flags, empty steps, and each transfer's
// endpoints, route, block count and payload pairs.
func TestJSONRoundTrip(t *testing.T) {
	sc := &Schedule{
		Fabric: topology.MustNew(8, 8),
		Phases: []Phase{
			{Name: "group-1", Steps: []Step{
				{Transfers: []Transfer{
					{Src: 0, Dst: 32, Dim: 1, Dir: topology.Pos, Hops: 4, Blocks: 32},
					{Src: 9, Dst: 41, Dim: 1, Dir: topology.Neg, Hops: 4, Blocks: 32},
				}},
			}},
			{Name: "bit", Rearrange: 64, Steps: []Step{
				{Shared: true, Transfers: []Transfer{{Src: 1, Dst: 2, Dim: 0, Dir: topology.Pos, Hops: 1, Blocks: 1,
					Segs: []Seg{{Dim: 0, Dir: topology.Pos, Hops: 1}}, Payload: []int32{66}}}},
				{}, // empty step survives the round trip
			}},
		},
	}
	var buf bytes.Buffer
	if err := sc.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got jsonSchedule
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	want := jsonSchedule{
		Version: Version,
		Fabric:  &jsonFabric{Kind: "torus", Dims: []int{8, 8}},
		Phases: []jsonPhase{
			{Name: "group-1", Steps: []jsonStep{{Transfers: []jsonTransfer{
				{Src: 0, Dst: 32, Dim: 1, Dir: "+", Hops: 4, Blocks: 32},
				{Src: 9, Dst: 41, Dim: 1, Dir: "-", Hops: 4, Blocks: 32},
			}}}},
			{Name: "bit", Rearrange: 64, Steps: []jsonStep{
				{Shared: true, Transfers: []jsonTransfer{{Src: 1, Dst: 2, Dim: 0, Dir: "+", Hops: 1, Blocks: 1,
					Segs: []jsonSeg{{Dim: 0, Dir: "+", Hops: 1}}, Payload: [][2]int{{1, 2}}}}},
				{Transfers: []jsonTransfer{}},
			}},
		},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v\nwant    %+v\nJSON:\n%s", got, want, buf.String())
	}
}
