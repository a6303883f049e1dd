package schedule

import (
	"bytes"
	"reflect"
	"testing"

	"torusx/internal/topology"
)

// FuzzReadJSON: every input returns an error or a schedule that holds
// to ReadJSON's own contract — each transfer joins two nodes of the
// fabric with a non-negative block count, each route leg names a
// fabric dimension and a non-negative hop count, each payload id is a
// block of the fabric — and that WriteJSON writes back to the same
// schedule. Seeds are what `aapetrace -alg direct -json` writes, on a
// 2x2 torus, in both formats, and a small dragonfly schedule with
// multi-leg routes, a shared step and a rearrangement.
func FuzzReadJSON(f *testing.F) {
	for _, sc := range []*Schedule{
		{Fabric: topology.MustNew(2, 2), Phases: []Phase{{Name: "direct", Steps: []Step{{Transfers: []Transfer{
			{Src: 0, Dst: 1, Dim: 1, Dir: topology.Pos, Hops: 1, Blocks: 1, Payload: []int32{1}},
			{Src: 1, Dst: 0, Dim: 1, Dir: topology.Pos, Hops: 1, Blocks: 1, Payload: []int32{4}},
			{Src: 2, Dst: 2, Dim: 0, Dir: topology.Pos, Hops: 0, Blocks: 1, Payload: []int32{10}},
		}}}}}},
		{Fabric: topology.MustNewDragonfly(1, 2), Phases: []Phase{{Name: "x", Rearrange: 2, Steps: []Step{{Shared: true, Transfers: []Transfer{
			{Src: 0, Dst: 3, Dim: 0, Dir: topology.Pos, Hops: 1, Blocks: 1, Payload: []int32{3},
				Segs: []Seg{{Dim: 0, Dir: topology.Pos, Hops: 1}, {Dim: 1, Dir: topology.Pos, Hops: 1}}},
		}}}}}},
	} {
		var buf bytes.Buffer
		if err := sc.WriteJSON(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(`{"dims": [2, 2], "phases": [{"name": "direct", "steps": [{"transfers": [{"src": 0, "dst": 1, "dim": 1, "dir": "+", "hops": 1, "blocks": 1, "payload": [[0, 1]]}]}]}]}`))
	f.Add([]byte(`{"version": 2, "fabric": {"kind": "torus", "dims": [65536, 65536]}, "phases": []}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		n, nd := sc.Fabric.Nodes(), sc.Fabric.NDims()
		sc.EachStep(func(ph *Phase, si int, st *Step) {
			if ph.Rearrange < 0 {
				t.Fatalf("phase %q rearranges %d blocks", ph.Name, ph.Rearrange)
			}
			for _, tr := range st.Transfers {
				if tr.Src < 0 || int(tr.Src) >= n || tr.Dst < 0 || int(tr.Dst) >= n || tr.Blocks < 0 {
					t.Fatalf("phase %q step %d: transfer %v on a %d-node fabric", ph.Name, si, tr, n)
				}
				for _, sg := range append(tr.Segments(), Seg{Dim: tr.Dim, Hops: tr.Hops}) {
					if sg.Dim < 0 || sg.Dim >= nd || sg.Hops < 0 {
						t.Fatalf("phase %q step %d: transfer %v leg %+v on a %d-dimensional fabric", ph.Name, si, tr, sg, nd)
					}
				}
				for _, id := range tr.Payload {
					if id < 0 || int64(id) >= int64(n)*int64(n) {
						t.Fatalf("phase %q step %d: transfer %v payload id %d", ph.Name, si, tr, id)
					}
				}
			}
		})
		var out bytes.Buffer
		if err := sc.WriteJSON(&out); err != nil {
			t.Fatalf("WriteJSON of a schedule ReadJSON accepted: %v", err)
		}
		again, err := ReadJSON(&out)
		if err != nil {
			t.Fatalf("ReadJSON rejects WriteJSON's output: %v", err)
		}
		if !reflect.DeepEqual(again, sc) {
			t.Fatal("WriteJSON → ReadJSON does not reproduce the schedule")
		}
	})
}
