package oracle

import (
	"errors"
	"strings"
	"testing"

	"torusx/internal/schedule"
	"torusx/internal/topology"
)

func TestCheckStepDetectsLinkContention(t *testing.T) {
	tor := topology.MustNew(8)
	// Two messages both traversing the link 1->2.
	s := &schedule.Step{Transfers: []schedule.Transfer{
		{Src: 0, Dst: 4, Dim: 0, Dir: topology.Pos, Hops: 4, Blocks: 1},
		{Src: 1, Dst: 3, Dim: 0, Dir: topology.Pos, Hops: 2, Blocks: 1},
	}}
	err := CheckStep(tor, "x", 0, s)
	var ce *schedule.ContentionError
	if !errors.As(err, &ce) {
		t.Fatalf("want ContentionError, got %v", err)
	}
	if ce.Link.Dim != 0 || ce.Link.Dir != topology.Pos {
		t.Fatalf("unexpected link %v", ce.Link)
	}
	if !strings.Contains(ce.Error(), "contention") {
		t.Fatalf("error text: %v", ce)
	}
}

func TestCheckStepOppositeDirectionsDoNotConflict(t *testing.T) {
	tor := topology.MustNew(8)
	// Full-duplex: +dir and -dir over the same node pairs are distinct channels.
	s := &schedule.Step{Transfers: []schedule.Transfer{
		{Src: 0, Dst: 4, Dim: 0, Dir: topology.Pos, Hops: 4, Blocks: 1},
		{Src: 4, Dst: 0, Dim: 0, Dir: topology.Neg, Hops: 4, Blocks: 1},
	}}
	if err := CheckStep(tor, "x", 0, s); err != nil {
		t.Fatalf("full-duplex transfers flagged: %v", err)
	}
}

func TestCheckStepDisjointSegmentsOK(t *testing.T) {
	tor := topology.MustNew(16)
	s := &schedule.Step{Transfers: []schedule.Transfer{
		{Src: 0, Dst: 4, Dim: 0, Dir: topology.Pos, Hops: 4, Blocks: 1},
		{Src: 4, Dst: 8, Dim: 0, Dir: topology.Pos, Hops: 4, Blocks: 1},
		{Src: 8, Dst: 12, Dim: 0, Dir: topology.Pos, Hops: 4, Blocks: 1},
		{Src: 12, Dst: 0, Dim: 0, Dir: topology.Pos, Hops: 4, Blocks: 1},
	}}
	if err := CheckStep(tor, "ring", 0, s); err != nil {
		t.Fatalf("tiling segments flagged: %v", err)
	}
}

func TestCheckStepOnePortSend(t *testing.T) {
	tor := topology.MustNew(8, 8)
	s := &schedule.Step{Transfers: []schedule.Transfer{
		{Src: 0, Dst: 1, Dim: 1, Dir: topology.Pos, Hops: 1, Blocks: 1},
		{Src: 0, Dst: 8, Dim: 0, Dir: topology.Pos, Hops: 1, Blocks: 1},
	}}
	err := CheckStep(tor, "x", 0, s)
	var oe *schedule.OnePortError
	if !errors.As(err, &oe) || oe.Role != "send" || oe.Node != 0 {
		t.Fatalf("want send OnePortError for node 0, got %v", err)
	}
}

func TestCheckStepOnePortReceive(t *testing.T) {
	tor := topology.MustNew(8, 8)
	s := &schedule.Step{Transfers: []schedule.Transfer{
		{Src: 1, Dst: 0, Dim: 1, Dir: topology.Neg, Hops: 1, Blocks: 1},
		{Src: 8, Dst: 0, Dim: 0, Dir: topology.Neg, Hops: 1, Blocks: 1},
	}}
	err := CheckStep(tor, "x", 0, s)
	var oe *schedule.OnePortError
	if !errors.As(err, &oe) || oe.Role != "receive" || oe.Node != 0 {
		t.Fatalf("want receive OnePortError for node 0, got %v", err)
	}
	if !strings.Contains(oe.Error(), "one-port") {
		t.Fatalf("error text: %v", oe)
	}
}

func TestScheduleCheckFindsDeepViolation(t *testing.T) {
	tor := topology.MustNew(8)
	sc := &schedule.Schedule{
		Fabric: tor,
		Phases: []schedule.Phase{
			{Name: "ok", Steps: []schedule.Step{
				{Transfers: []schedule.Transfer{{Src: 0, Dst: 1, Dim: 0, Dir: topology.Pos, Hops: 1, Blocks: 1}}},
			}},
			{Name: "bad", Steps: []schedule.Step{
				{}, // empty step is fine
				{Transfers: []schedule.Transfer{
					{Src: 0, Dst: 2, Dim: 0, Dir: topology.Pos, Hops: 2, Blocks: 1},
					{Src: 1, Dst: 2, Dim: 0, Dir: topology.Pos, Hops: 1, Blocks: 1},
				}},
			}},
		},
	}
	err := Check(sc)
	if err == nil {
		t.Fatal("Check should fail")
	}
	var ce *schedule.ContentionError
	var oe *schedule.OnePortError
	if !errors.As(err, &ce) && !errors.As(err, &oe) {
		t.Fatalf("unexpected error type: %v", err)
	}
	if !strings.Contains(err.Error(), "bad") {
		t.Fatalf("error should name the phase: %v", err)
	}
}
