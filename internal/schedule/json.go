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
// self-describing. Version 2 (the current encoder) carries an explicit
// "version" field and a fabric descriptor ("fabric": {"kind": "torus",
// "dims": [...]} or {"kind": "dragonfly", "k": K, "m": M}); version-1
// files predate both and describe a torus through a bare top-level
// "dims" array, which ReadJSON still accepts. Optional fields carry
// the richer IR annotations — multi-leg routes ("segs"), recorded
// payloads ("payload", as [origin, dest] pairs, which the reader checks
// against the fabric and converts to dense ids), link-sharing steps
// ("shared") and per-phase rearrangement counts ("rearrange") — and
// are omitted when absent, so schedules written by older versions read
// back unchanged.

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
	// Dims is the version-1 torus shape; version-2 files carry Fabric
	// instead.
	Dims   []int       `json:"dims,omitempty"`
	Phases []jsonPhase `json:"phases"`
}

func parseDir(s string) (topology.Direction, error) {
	switch s {
	case "+":
		return topology.Pos, nil
	case "-":
		return topology.Neg, nil
	}
	return topology.Pos, fmt.Errorf("schedule: bad direction %q", s)
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

// fabricFromDescriptor rebuilds the fabric a descriptor names.
func fabricFromDescriptor(jf *jsonFabric) (topology.Fabric, error) {
	switch jf.Kind {
	case "torus":
		return topology.New(jf.Dims...)
	case "dragonfly":
		return topology.NewDragonfly(jf.K, jf.M)
	}
	return nil, fmt.Errorf("schedule: unknown fabric kind %q", jf.Kind)
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

// ReadJSON reconstructs a schedule from the WriteJSON format. Version-2
// files rebuild the fabric from the descriptor; version-less (v1) files
// rebuild a torus from the recorded dimensions. Every transfer must
// join two nodes of the fabric and carry a non-negative block count,
// and every route leg must name a fabric dimension and a non-negative
// hop count, so the schedule's routes can be walked on its fabric.
func ReadJSON(r io.Reader) (*Schedule, error) {
	var in jsonSchedule
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, err
	}
	var fab topology.Fabric
	var err error
	switch {
	case in.Version == 0 && in.Fabric == nil:
		// Legacy version-less encoding: a torus described by bare dims.
		fab, err = topology.New(in.Dims...)
	case in.Version > Version:
		return nil, fmt.Errorf("schedule: file version %d is newer than supported version %d", in.Version, Version)
	case in.Fabric == nil:
		return nil, fmt.Errorf("schedule: version %d file lacks a fabric descriptor", in.Version)
	default:
		fab, err = fabricFromDescriptor(in.Fabric)
	}
	if err != nil {
		return nil, err
	}
	sc := &Schedule{Fabric: fab}
	n, nd := fab.Nodes(), fab.NDims()
	// A leg must name a dimension of the fabric and walk forward along
	// it, or walking its route would index outside the fabric.
	checkLeg := func(dim, hops int) error {
		if dim < 0 || dim >= nd || hops < 0 {
			return fmt.Errorf("schedule: route leg dim %d, %d hops on a %d-dimensional fabric", dim, hops, nd)
		}
		return nil
	}
	for _, jp := range in.Phases {
		if jp.Rearrange < 0 {
			return nil, fmt.Errorf("schedule: phase %q rearranges %d blocks", jp.Name, jp.Rearrange)
		}
		ph := Phase{Name: jp.Name, Rearrange: jp.Rearrange}
		for _, js := range jp.Steps {
			st := Step{Shared: js.Shared}
			for _, jt := range js.Transfers {
				if jt.Src < 0 || jt.Src >= n || jt.Dst < 0 || jt.Dst >= n || jt.Blocks < 0 {
					return nil, fmt.Errorf("schedule: transfer %d->%d of %d blocks on a %d-node fabric", jt.Src, jt.Dst, jt.Blocks, n)
				}
				dir, err := parseDir(jt.Dir)
				if err != nil {
					return nil, err
				}
				if err := checkLeg(jt.Dim, jt.Hops); err != nil {
					return nil, err
				}
				tr := Transfer{
					Src: topology.NodeID(jt.Src), Dst: topology.NodeID(jt.Dst),
					Dim: jt.Dim, Dir: dir, Hops: jt.Hops, Blocks: jt.Blocks,
				}
				for _, s := range jt.Segs {
					sdir, err := parseDir(s.Dir)
					if err != nil {
						return nil, err
					}
					if err := checkLeg(s.Dim, s.Hops); err != nil {
						return nil, err
					}
					tr.Segs = append(tr.Segs, Seg{Dim: s.Dim, Dir: sdir, Hops: s.Hops})
				}
				// A pair outside [0, n)² has no id: [0, n] would alias
				// block [1, 0]. Ids are 32-bit, so only fabrics whose n²
				// ids fit carry payloads.
				if len(jt.Payload) > 0 && int64(n)*int64(n) > 1<<31 {
					return nil, fmt.Errorf("schedule: payload block ids of a %d-node fabric exceed 32 bits", n)
				}
				for _, p := range jt.Payload {
					if p[0] < 0 || p[0] >= n || p[1] < 0 || p[1] >= n {
						return nil, fmt.Errorf("schedule: payload block [%d,%d] outside a %d-node fabric", p[0], p[1], n)
					}
					tr.Payload = append(tr.Payload, int32(p[0]*n+p[1]))
				}
				st.Transfers = append(st.Transfers, tr)
			}
			ph.Steps = append(ph.Steps, st)
		}
		sc.Phases = append(sc.Phases, ph)
	}
	return sc, nil
}
