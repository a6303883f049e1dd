package schedule

import (
	"encoding/json"
	"fmt"
	"io"

	"torusx/internal/block"
	"torusx/internal/topology"
)

// JSON export for external tooling (plotting, schedule inspection,
// replaying on real hardware). The format is stable and
// self-describing: version 2 carries an explicit "version" field and a
// fabric descriptor ("fabric": {"kind": "torus", "dims": [...]} or
// {"kind": "dragonfly", "k": K, "m": M}). Optional fields carry the
// richer IR annotations — multi-leg routes ("segs"), recorded payloads
// ("payload", as [origin, dest] pairs), link-sharing steps ("shared")
// and per-phase rearrangement counts ("rearrange") — and are omitted
// when absent. The committed goldens in testdata pin the bytes for
// both fabric kinds.

// Version is the schema version WriteJSON emits.
const Version = 2

type jsonSeg struct {
	Dim  int    `json:"dim"`
	Dir  string `json:"dir"`
	Hops int    `json:"hops"`
}

type jsonTransfer struct {
	Src     int       `json:"src"`
	Dst     int       `json:"dst"`
	Dim     int       `json:"dim"`
	Dir     string    `json:"dir"` // "+" or "-"
	Hops    int       `json:"hops"`
	Blocks  int       `json:"blocks"`
	Segs    []jsonSeg `json:"segs,omitempty"`
	Payload [][2]int  `json:"payload,omitempty"`
}

type jsonStep struct {
	Transfers []jsonTransfer `json:"transfers"`
	Shared    bool           `json:"shared,omitempty"`
}

type jsonPhase struct {
	Name      string     `json:"name"`
	Steps     []jsonStep `json:"steps"`
	Rearrange int        `json:"rearrange,omitempty"`
}

type jsonFabric struct {
	Kind string `json:"kind"`
	Dims []int  `json:"dims,omitempty"` // torus
	K    int    `json:"k,omitempty"`    // dragonfly
	M    int    `json:"m,omitempty"`    // dragonfly
}

type jsonSchedule struct {
	Version int         `json:"version,omitempty"`
	Fabric  *jsonFabric `json:"fabric,omitempty"`
	Phases  []jsonPhase `json:"phases"`
}

// fabricDescriptor renders f as its serialized descriptor.
func fabricDescriptor(f topology.Fabric) (*jsonFabric, error) {
	switch ft := f.(type) {
	case *topology.Torus:
		return &jsonFabric{Kind: "torus", Dims: ft.Dims()}, nil
	case *topology.Dragonfly:
		return &jsonFabric{Kind: "dragonfly", K: ft.K(), M: ft.M()}, nil
	}
	return nil, fmt.Errorf("schedule: fabric %T has no JSON descriptor", f)
}

// WriteJSON serializes the schedule to w in the version-2 format.
func (sc *Schedule) WriteJSON(w io.Writer) error {
	jf, err := fabricDescriptor(sc.Fabric)
	if err != nil {
		return err
	}
	out := jsonSchedule{Version: Version, Fabric: jf}
	n := sc.Fabric.Nodes()
	for _, ph := range sc.Phases {
		jp := jsonPhase{Name: ph.Name, Rearrange: ph.Rearrange}
		for _, st := range ph.Steps {
			js := jsonStep{Transfers: make([]jsonTransfer, 0, len(st.Transfers)), Shared: st.Shared}
			for _, tr := range st.Transfers {
				jt := jsonTransfer{
					Src: int(tr.Src), Dst: int(tr.Dst),
					Dim: tr.Dim, Dir: tr.Dir.String(),
					Hops: tr.Hops, Blocks: tr.Blocks,
				}
				for _, s := range tr.Segs {
					jt.Segs = append(jt.Segs, jsonSeg{Dim: s.Dim, Dir: s.Dir.String(), Hops: s.Hops})
				}
				for _, id := range tr.Payload {
					b := block.FromID(id, n)
					jt.Payload = append(jt.Payload, [2]int{int(b.Origin), int(b.Dest)})
				}
				js.Transfers = append(js.Transfers, jt)
			}
			jp.Steps = append(jp.Steps, js)
		}
		out.Phases = append(out.Phases, jp)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
