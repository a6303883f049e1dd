package schedule

import (
	"fmt"
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
