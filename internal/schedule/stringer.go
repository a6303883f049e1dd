package schedule

import (
	"fmt"
	"strconv"
	"strings"

	"torusx/internal/topology"
)

// GoString renders the leg as Go syntax, so %#v dumps of schedules
// paste back into tests.
func (s Seg) GoString() string {
	return fmt.Sprintf("schedule.Seg{Dim: %d, Dir: %s, Hops: %d}", s.Dim, dirGo(s.Dir), s.Hops)
}

// GoString renders the transfer as Go syntax. Payload blocks are
// elided (a replayable schedule's payloads are derived data, not
// something a test fixture spells out); their count is kept as a
// comment when present.
func (tr Transfer) GoString() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schedule.Transfer{Src: %d, Dst: %d, Dim: %d, Dir: %s, Hops: %d, Blocks: %d",
		tr.Src, tr.Dst, tr.Dim, dirGo(tr.Dir), tr.Hops, tr.Blocks)
	if tr.Segs != nil {
		b.WriteString(", Segs: []schedule.Seg{")
		for i, s := range tr.Segs {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(s.GoString())
		}
		b.WriteString("}")
	}
	b.WriteString("}")
	if n := len(tr.Payload); n > 0 {
		fmt.Fprintf(&b, " /* +%d payload blocks */", n)
	}
	return b.String()
}

// GoString renders the step as Go syntax (transfers spelled out via
// their own GoString).
func (st Step) GoString() string {
	var b strings.Builder
	b.WriteString("schedule.Step{Transfers: []schedule.Transfer{")
	for i, tr := range st.Transfers {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(tr.GoString())
	}
	b.WriteString("}")
	if st.Shared {
		b.WriteString(", Shared: true")
	}
	b.WriteString("}")
	return b.String()
}

func dirGo(d topology.Direction) string {
	if d == topology.Pos {
		return "topology.Pos"
	}
	return "topology.Neg"
}

// ParseTransfer inverts Transfer.String: "0->5 dim0+h4 b2" round-trips
// to the transfer that printed it (payloads excepted — the textual form
// is structural). Multi-leg routes ("dim0+h3,dim1-h2") come back with
// Segs populated and the head fields describing the first leg, matching
// how builders construct them.
func ParseTransfer(s string) (Transfer, error) {
	fields := strings.Fields(strings.TrimSpace(s))
	if len(fields) != 3 {
		return Transfer{}, fmt.Errorf("schedule: transfer %q: want \"SRC->DST ROUTE bBLOCKS\"", s)
	}
	ends := strings.Split(fields[0], "->")
	if len(ends) != 2 {
		return Transfer{}, fmt.Errorf("schedule: transfer %q: bad endpoints %q", s, fields[0])
	}
	src, err := strconv.Atoi(ends[0])
	if err != nil {
		return Transfer{}, fmt.Errorf("schedule: transfer %q: bad src: %v", s, err)
	}
	dst, err := strconv.Atoi(ends[1])
	if err != nil {
		return Transfer{}, fmt.Errorf("schedule: transfer %q: bad dst: %v", s, err)
	}
	// Checked as ints: a NodeID is 32-bit and would wrap 1<<32+1 to 1.
	if src < 0 || src >= topology.MaxNodes || dst < 0 || dst >= topology.MaxNodes {
		return Transfer{}, fmt.Errorf("schedule: transfer %q: endpoint outside [0, %d)", s, topology.MaxNodes)
	}
	if !strings.HasPrefix(fields[2], "b") {
		return Transfer{}, fmt.Errorf("schedule: transfer %q: bad block count %q", s, fields[2])
	}
	blocks, err := strconv.Atoi(fields[2][1:])
	if err != nil {
		return Transfer{}, fmt.Errorf("schedule: transfer %q: bad block count: %v", s, err)
	}

	var segs []Seg
	for _, leg := range strings.Split(fields[1], ",") {
		seg, err := parseSeg(leg)
		if err != nil {
			return Transfer{}, fmt.Errorf("schedule: transfer %q: %v", s, err)
		}
		segs = append(segs, seg)
	}
	tr := Transfer{
		Src: topology.NodeID(src), Dst: topology.NodeID(dst),
		Dim: segs[0].Dim, Dir: segs[0].Dir, Hops: segs[0].Hops,
		Blocks: blocks,
	}
	if len(segs) > 1 {
		tr.Segs = segs
	}
	return tr, nil
}

// parseSeg inverts one "dim0+h4" route leg.
func parseSeg(s string) (Seg, error) {
	rest, ok := strings.CutPrefix(s, "dim")
	if !ok {
		return Seg{}, fmt.Errorf("bad route leg %q", s)
	}
	var dir topology.Direction
	var parts []string
	if parts = strings.SplitN(rest, "+h", 2); len(parts) == 2 {
		dir = topology.Pos
	} else if parts = strings.SplitN(rest, "-h", 2); len(parts) == 2 {
		dir = topology.Neg
	} else {
		return Seg{}, fmt.Errorf("bad route leg %q", s)
	}
	dim, err := strconv.Atoi(parts[0])
	if err != nil {
		return Seg{}, fmt.Errorf("bad dimension in %q: %v", s, err)
	}
	hops, err := strconv.Atoi(parts[1])
	if err != nil {
		return Seg{}, fmt.Errorf("bad hop count in %q: %v", s, err)
	}
	return Seg{Dim: dim, Dir: dir, Hops: hops}, nil
}
