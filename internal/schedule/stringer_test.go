package schedule_test

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"torusx/internal/baseline"
	"torusx/internal/exchange"
	"torusx/internal/schedule"
	"torusx/internal/topology"
)

// TestTransferStringRoundTrip feeds every transfer of real schedules —
// single-leg (proposed, ring) and multi-leg dimension-ordered routes
// (direct) — through String, decodes the text back into endpoints,
// legs and block count, and requires them to equal the transfer's
// structure. A multi-leg transfer's head fields must describe its
// first leg, and the payload must not change the text.
func TestTransferStringRoundTrip(t *testing.T) {
	tor := topology.MustNew(8, 8)
	multi := 0
	for _, emit := range []func(*topology.Torus, schedule.Sink) error{exchange.EmitStructural, baseline.EmitDirect, baseline.EmitRing} {
		sc, err := schedule.Collect(tor, emit)
		if err != nil {
			t.Fatal(err)
		}
		seen := 0
		sc.EachStep(func(_ *schedule.Phase, _ int, st *schedule.Step) {
			for _, tr := range st.Transfers {
				seen++
				s := tr.String()
				src, dst, legs, blocks, err := decodeTransfer(s)
				if err != nil {
					t.Fatalf("decode %q: %v", s, err)
				}
				if src != int(tr.Src) || dst != int(tr.Dst) || blocks != tr.Blocks {
					t.Fatalf("%q decodes to %d->%d b%d, want %d->%d b%d", s, src, dst, blocks, tr.Src, tr.Dst, tr.Blocks)
				}
				want := tr.Segs
				if want == nil {
					want = []schedule.Seg{{Dim: tr.Dim, Dir: tr.Dir, Hops: tr.Hops}}
				} else {
					multi++
					if head := (schedule.Seg{Dim: tr.Dim, Dir: tr.Dir, Hops: tr.Hops}); head != want[0] {
						t.Fatalf("%q: head fields %+v differ from the first leg %+v", s, head, want[0])
					}
				}
				if fmt.Sprint(legs) != fmt.Sprint(want) {
					t.Fatalf("%q decodes to legs %+v, want %+v", s, legs, want)
				}
				bare := tr
				bare.Payload = nil
				if bare.String() != s {
					t.Fatalf("payload changed the text: %q vs %q", s, bare.String())
				}
			}
		})
		if seen == 0 {
			t.Fatal("schedule had no transfers")
		}
	}
	if multi == 0 {
		t.Fatal("no schedule had a multi-leg transfer")
	}
}

// decodeTransfer reads Transfer.String's form "SRC->DST LEG[,LEG…] bN",
// each leg "dimD±hH".
func decodeTransfer(s string) (src, dst int, legs []schedule.Seg, blocks int, err error) {
	f := strings.Fields(s)
	if len(f) != 3 || !strings.HasPrefix(f[2], "b") {
		return 0, 0, nil, 0, fmt.Errorf("want three fields ending in bN")
	}
	a, b, ok := strings.Cut(f[0], "->")
	if !ok {
		return 0, 0, nil, 0, fmt.Errorf("bad endpoints %q", f[0])
	}
	if src, err = strconv.Atoi(a); err != nil {
		return
	}
	if dst, err = strconv.Atoi(b); err != nil {
		return
	}
	if blocks, err = strconv.Atoi(f[2][1:]); err != nil {
		return
	}
	for _, leg := range strings.Split(f[1], ",") {
		rest, ok := strings.CutPrefix(leg, "dim")
		i := strings.IndexAny(rest, "+-")
		if !ok || i < 0 || !strings.HasPrefix(rest[i+1:], "h") {
			return 0, 0, nil, 0, fmt.Errorf("bad leg %q", leg)
		}
		var sg schedule.Seg
		if sg.Dim, err = strconv.Atoi(rest[:i]); err != nil {
			return
		}
		if sg.Hops, err = strconv.Atoi(rest[i+2:]); err != nil {
			return
		}
		sg.Dir = topology.Pos
		if rest[i] == '-' {
			sg.Dir = topology.Neg
		}
		legs = append(legs, sg)
	}
	return
}

func TestGoStringIsGoSyntax(t *testing.T) {
	tr := schedule.Transfer{Src: 3, Dst: 9, Dim: 1, Dir: topology.Neg, Hops: 2, Blocks: 4,
		Segs: []schedule.Seg{{Dim: 1, Dir: topology.Neg, Hops: 2}, {Dim: 0, Dir: topology.Pos, Hops: 1}}}
	g := tr.GoString()
	for _, want := range []string{
		"schedule.Transfer{", "Src: 3", "Dst: 9", "topology.Neg",
		"Segs: []schedule.Seg{", "topology.Pos", "Blocks: 4",
	} {
		if !strings.Contains(g, want) {
			t.Errorf("GoString %q lacks %q", g, want)
		}
	}
	st := schedule.Step{Transfers: []schedule.Transfer{tr}, Shared: true}
	if g := st.GoString(); !strings.Contains(g, "Shared: true") || !strings.Contains(g, "schedule.Step{") {
		t.Errorf("Step GoString %q", g)
	}
	// %#v routes through GoString, and payloads surface as a count, not
	// as data.
	tr.Payload = []int32{0, 0}
	if g := fmt.Sprintf("%#v", tr); !strings.Contains(g, "+2 payload blocks") {
		t.Errorf("payload-carrying GoString %q should note the payload count", g)
	}
}
