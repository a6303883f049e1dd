package schedule_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"torusx/internal/baseline"
	"torusx/internal/exchange"
	"torusx/internal/schedule"
	"torusx/internal/topology"
)

// TestTransferStringRoundTrip feeds every transfer of real schedules —
// single-leg (proposed) and multi-leg dimension-ordered routes
// (direct) — through String then ParseTransfer and requires structural
// equality (payloads excepted: the textual form is structural).
func TestTransferStringRoundTrip(t *testing.T) {
	tor := topology.MustNew(8, 8)
	prop, err := exchange.GenerateStructural(tor)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []*schedule.Schedule{prop, baseline.DirectSchedule(tor), baseline.RingSchedule(tor)} {
		seen := 0
		sc.EachStep(func(_ *schedule.Phase, _ int, st *schedule.Step) {
			for _, tr := range st.Transfers {
				seen++
				s := tr.String()
				back, err := schedule.ParseTransfer(s)
				if err != nil {
					t.Fatalf("ParseTransfer(%q): %v", s, err)
				}
				want := tr
				want.Payload = nil
				if !reflect.DeepEqual(back, want) {
					t.Fatalf("round trip of %q:\n got %#v\nwant %#v", s, back, want)
				}
				if back.String() != s {
					t.Fatalf("re-stringed %q != %q", back.String(), s)
				}
			}
		})
		if seen == 0 {
			t.Fatal("schedule had no transfers")
		}
	}
}

func TestParseTransferErrors(t *testing.T) {
	for _, s := range []string{
		"",
		"0->5",
		"0->5 dim0+h4",
		"0-5 dim0+h4 b2",
		"x->5 dim0+h4 b2",
		"0->y dim0+h4 b2",
		"0->5 d0+h4 b2",
		"0->5 dim0*h4 b2",
		"0->5 dimz+h4 b2",
		"0->5 dim0+hq b2",
		"0->5 dim0+h4 2",
		"0->5 dim0+h4 bx",
		"0->5 dim0+h3,badleg b2",
		"-1->5 dim0+h4 b2",
		"0->2147483647 dim0+h4 b2",
		"4294967297->5 dim0+h4 b2",
		"0->4294967301 dim0+h4 b2",
	} {
		if _, err := schedule.ParseTransfer(s); err == nil {
			t.Errorf("ParseTransfer(%q): expected error", s)
		}
	}
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
