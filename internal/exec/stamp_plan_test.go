package exec_test

import (
	"testing"

	"torusx/internal/block"
	"torusx/internal/exec"
	"torusx/internal/oracle"
	"torusx/internal/schedule"
	"torusx/internal/topology"
)

// The descriptor planner maps arrival stamps to log slots: each arrival
// at a node is one stamp segment, a last-hop segment takes no slots,
// and a delivery from a last-hop segment reads the sender's slot. The
// rows below are hand-built so that each of the planner's cases shows
// in a few blocks on a 1-D torus, where the registry's schedules mix
// them at scale.

// ringHop is a one-hop transfer on a 1-D torus of n nodes.
func ringHop(n int, src, dst topology.NodeID, dir topology.Direction, pay ...block.Block) schedule.Transfer {
	return schedule.Transfer{Src: src, Dst: dst, Dim: 0, Dir: dir, Hops: 1, Blocks: len(pay), Payload: block.IDs(pay, n)}
}

// selfCopy is a rearrangement within node v.
func selfCopy(n int, v topology.NodeID, pay ...block.Block) schedule.Transfer {
	return schedule.Transfer{Src: v, Dst: v, Dim: 0, Dir: topology.Pos, Blocks: len(pay), Payload: block.IDs(pay, n)}
}

// ringRow is a wall row on the 1-D torus of n nodes, one transfer list
// per step.
func ringRow(name string, n int, traffic []block.Block, steps ...[]schedule.Transfer) wallRow {
	ph := schedule.Phase{Name: name}
	for _, trs := range steps {
		ph.Steps = append(ph.Steps, schedule.Step{Transfers: trs})
	}
	return wallRow{name: name, sc: &schedule.Schedule{Fabric: topology.MustNew(n), Phases: []schedule.Phase{ph}}, traffic: traffic}
}

func blk(o, d topology.NodeID) block.Block { return block.Block{Origin: o, Dest: d} }

func stampPlannerRows(t *testing.T) []wallRow {
	t.Helper()
	pos, neg := topology.Pos, topology.Neg
	rows := []wallRow{
		// Nodes 0 and 1 each copy a block of their own that never moves
		// again (last-hop self-transfers, read where they were taken),
		// then swap blocks, and node 0 copies the block it received:
		// that arrival becomes a log move, and the copy a last-hop self
		// transfer whose sender slot lies in it.
		ringRow("last-hop-self", 4,
			[]block.Block{blk(0, 0), blk(0, 1), blk(1, 0), blk(1, 1)},
			[]schedule.Transfer{selfCopy(4, 0, blk(0, 0)), selfCopy(4, 1, blk(1, 1))},
			[]schedule.Transfer{ringHop(4, 0, 1, pos, blk(0, 1)), ringHop(4, 1, 0, neg, blk(1, 0))},
			[]schedule.Transfer{selfCopy(4, 0, blk(1, 0))},
		),
		// Node 1 (stamp 0 its own block) receives A = stamps 1-2 from
		// node 0, B = stamp 3 from node 2, which it keeps (last hop), and
		// C = stamp 4 from node 2. Its move to node 2 takes stamps 1, 2
		// and 4: two stamp runs that straddle B and form the one slot
		// run 1-3. Node 2 keeps one block of that arrival and forwards
		// the rest; node 3 starts empty.
		ringRow("straddle", 4,
			[]block.Block{blk(0, 0), blk(0, 2), blk(0, 3), blk(1, 1), blk(2, 1), blk(2, 3)},
			[]schedule.Transfer{ringHop(4, 0, 1, pos, blk(0, 2), blk(0, 3))},
			[]schedule.Transfer{ringHop(4, 2, 1, neg, blk(2, 1))},
			[]schedule.Transfer{ringHop(4, 2, 1, neg, blk(2, 3))},
			[]schedule.Transfer{ringHop(4, 1, 2, pos, blk(0, 2), blk(2, 3), blk(0, 3))},
			[]schedule.Transfer{ringHop(4, 2, 3, pos, blk(2, 3), blk(0, 3))},
		),
		// Node 1 receives two blocks, keeps the first and forwards the
		// second: its arrival is a log move although half of it is
		// delivered from node 1's own region.
		ringRow("forward-part", 3,
			[]block.Block{blk(0, 1), blk(0, 2), blk(1, 1), blk(2, 2)},
			[]schedule.Transfer{ringHop(3, 0, 1, pos, blk(0, 1), blk(0, 2))},
			[]schedule.Transfer{ringHop(3, 1, 2, pos, blk(0, 2))},
		),
		// Sparse traffic: node 1 starts empty, node 3 starts empty and
		// receives nothing, and node 0 receives nothing. Nodes 1 and 2
		// swap in one step.
		ringRow("sparse-empty", 4,
			[]block.Block{blk(0, 1), blk(0, 2), blk(2, 1)},
			[]schedule.Transfer{ringHop(4, 0, 1, pos, blk(0, 1), blk(0, 2))},
			[]schedule.Transfer{ringHop(4, 1, 2, pos, blk(0, 2)), ringHop(4, 2, 1, neg, blk(2, 1))},
		),
	}
	// Dragonfly rows: the dimension exchange on D3(2,3), whole and
	// pruned to a hotspot matrix.
	dfly := topology.MustNewDragonfly(2, 3)
	for _, gen := range []string{"", "hotspot:k=2,seed=1"} {
		row, ok := registryRow(t, "dimexchange@"+dfly.String()+"+"+gen, "dimexchange", dfly, gen)
		if !ok {
			t.Fatalf("dimexchange rejects %s", dfly)
		}
		rows = append(rows, row)
	}
	return rows
}

// TestStampPlannerDifferential holds the stamp planner's cases to the
// naive oracle: each row compiles whole and streamed one step per
// batch, to the same file, and each program replays serial and in
// parallel (with every step and the delivery pass fanned out too),
// through RunArena and ReplayInto, fresh and decoded, with its plan
// passing CheckDescriptorPlan.
func TestStampPlannerDifferential(t *testing.T) {
	for _, r := range stampPlannerRows(t) {
		r := r
		t.Run(r.name, func(t *testing.T) {
			if err := oracle.Check(r.sc); err != nil {
				t.Fatalf("schedule invalid: %v", err)
			}
			checkRow(t, r, defaultWidths)
			opt := exec.Options{Traffic: r.traffic}
			checkStreamRow(t, wholeRow(r.name, r.sc, opt))
			want, err := oracleRun(r.sc, r.traffic)
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			restore := exec.StreamOneStep()
			defer restore()
			pg, err := exec.CompileStream(r.sc.Fabric, emitter(cloneSchedule(r.sc)), opt)
			if err != nil {
				t.Fatalf("CompileStream: %v", err)
			}
			checkProgram(t, r, want, pg, defaultWidths)
		})
	}
	t.Run("straddle-one-run", checkStraddleRun)
}

// checkStraddleRun pins the straddle row's plan: node 1's move reads
// its stamps 1, 2 and 4 as one descriptor over the slot run 1-3 of its
// region, because the last-hop arrival at stamp 3 took no slot.
func checkStraddleRun(t *testing.T) {
	var r wallRow
	for _, row := range stampPlannerRows(t) {
		if row.name == "straddle" {
			r = row
		}
	}
	pg, err := exec.Compile(r.sc, exec.Options{Traffic: r.traffic})
	if err != nil {
		t.Fatal(err)
	}
	_, err = exec.EncodeWithPlanEdit(pg, 0, func(moves []exec.MoveRec, _, descBase []int32, descs []exec.DescRec) {
		for _, m := range moves {
			if m.Src != 1 {
				continue
			}
			want := exec.DescRec{Start: descBase[1] + 1, Count: 1, BlockLen: 3}
			if m.DescLen != 1 || descs[m.DescOff] != want {
				t.Errorf("node 1's move reads %v, want the one run %+v", descs[m.DescOff:m.DescOff+m.DescLen], want)
			}
			return
		}
		t.Errorf("no log move from node 1 in %+v", moves)
	})
	if err != nil {
		t.Fatal(err)
	}
}
