package baseline

import (
	"fmt"
	"reflect"
	"testing"

	"torusx/internal/block"
	"torusx/internal/oracle"
	"torusx/internal/schedule"
	"torusx/internal/topology"
)

// refRound is one round of a combining baseline, as the reference
// simulator runs it: every node sends the blocks whose remaining ring
// offset satisfies send to the node dist ahead.
type refRound struct {
	dist   int
	shared bool
	send   func(off int) bool
}

// refCombining is the reference simulator for the three combining
// baselines, on oracle.Buffer.TakeIf semantics: each round takes every
// selected block out of each node's buffer in buffer order, then appends
// the taken blocks at their receiver. Phases for size-1 dimensions are
// skipped when skipSize1 is set, and empty steps dropped when dropEmpty
// is.
func refCombining(t *topology.Torus, prefix string, rearrange int, skipSize1, dropEmpty bool,
	roundsOf func(size int) []refRound) *schedule.Schedule {
	n := t.Nodes()
	bufs := oracle.Initial(t)
	coords := make([]topology.Coord, n)
	for i := range coords {
		coords[i] = t.CoordOf(topology.NodeID(i))
	}
	sc := &schedule.Schedule{Fabric: t}
	for dim := 0; dim < t.NDims(); dim++ {
		if skipSize1 && t.Dim(dim) == 1 {
			continue
		}
		ph := schedule.Phase{Name: fmt.Sprintf("%s-dim%d", prefix, dim), Rearrange: rearrange}
		for _, rd := range roundsOf(t.Dim(dim)) {
			step := schedule.Step{Shared: rd.shared}
			moved := make([][]block.Block, n)
			for i := 0; i < n; i++ {
				self := coords[i]
				taken, _ := bufs[i].TakeIf(func(b block.Block) bool {
					return rd.send(t.Wrap(dim, coords[b.Dest][dim]-self[dim]))
				})
				if len(taken) == 0 {
					continue
				}
				dst := t.MoveID(topology.NodeID(i), dim, rd.dist)
				moved[dst] = taken
				step.Transfers = append(step.Transfers, schedule.Transfer{
					Src: topology.NodeID(i), Dst: dst,
					Dim: dim, Dir: topology.Pos, Hops: rd.dist,
					Blocks: len(taken), Payload: block.IDs(taken, n),
				})
			}
			for j, bs := range moved {
				if bs != nil {
					bufs[j].Add(bs...)
				}
			}
			if dropEmpty && len(step.Transfers) == 0 {
				continue
			}
			ph.Steps = append(ph.Steps, step)
		}
		sc.Phases = append(sc.Phases, ph)
	}
	return sc
}

func refRing(t *topology.Torus) (*schedule.Schedule, error) {
	return refCombining(t, "ring", 0, true, false, func(size int) []refRound {
		var rs []refRound
		for s := 1; s < size; s++ {
			rs = append(rs, refRound{1, false, func(off int) bool { return off > 0 }})
		}
		return rs
	}), nil
}

func refFactored(t *topology.Torus) (*schedule.Schedule, error) {
	return refCombining(t, "factored", t.Nodes(), true, true, func(size int) []refRound {
		var rs []refRound
		place := 1
		for _, f := range primeFactors(size) {
			for v := 1; v < f; v++ {
				f, v, place := f, v, place
				rs = append(rs, refRound{v * place, v*place > 1, func(off int) bool { return (off/place)%f == v }})
			}
			place *= f
		}
		return rs
	}), nil
}

func refLogTime(t *topology.Torus) (*schedule.Schedule, error) {
	for d := 0; d < t.NDims(); d++ {
		if !isPow2(t.Dim(d)) {
			return nil, fmt.Errorf("not a power of two")
		}
	}
	return refCombining(t, "logtime", t.Nodes(), false, true, func(size int) []refRound {
		var rs []refRound
		for r := 1; r < size; r <<= 1 {
			r := r
			rs = append(rs, refRound{r, r > 1, func(off int) bool { return off&r != 0 }})
		}
		return rs
	}), nil
}

// refDirect builds the direct exchange serially, one appended transfer
// and one freshly allocated route at a time.
func refDirect(t *topology.Torus) *schedule.Schedule {
	n := t.Nodes()
	ph := schedule.Phase{Name: "direct"}
	for k := 1; k < n; k++ {
		step := schedule.Step{Shared: true}
		for i := 0; i < n; i++ {
			j := (i + k) % n
			segs := appendDirectRoute(nil, t, t.CoordOf(topology.NodeID(i)), t.CoordOf(topology.NodeID(j)))
			tr := schedule.Transfer{
				Src: topology.NodeID(i), Dst: topology.NodeID(j),
				Dim: segs[0].Dim, Dir: segs[0].Dir, Hops: segs[0].Hops,
				Blocks: 1, Payload: []int32{int32(i*n + j)},
			}
			if len(segs) > 1 {
				tr.Segs = segs
			}
			step.Transfers = append(step.Transfers, tr)
		}
		ph.Steps = append(ph.Steps, step)
	}
	return &schedule.Schedule{Fabric: t, Phases: []schedule.Phase{ph}}
}

// TestRoundEngineMatchesReference holds the dense round engine behind
// ring, factored and logtime to the TakeIf reference, transfer for
// transfer and block for block, on square, rectangular, cubic and
// virtual-node (size-1 dimension) tori, a ring, and odd and mixed sizes
// with a size-1 dimension between others. LogTime must reject exactly the
// shapes the reference rejects.
func TestRoundEngineMatchesReference(t *testing.T) {
	shapes := [][]int{{4, 4}, {8, 8}, {16, 16}, {12, 8}, {6, 10}, {4, 4, 4}, {2, 2, 2}, {1, 8}, {8, 1}, {9}, {3, 5, 2}, {2, 1, 6}, {4, 1, 4}, {4, 2, 8}}
	cells := []struct {
		name string
		emit func(*topology.Torus, schedule.Sink) error
		ref  func(*topology.Torus) (*schedule.Schedule, error)
	}{
		{"ring", EmitRing, refRing},
		{"factored", EmitFactored, refFactored},
		{"logtime", EmitLogTime, refLogTime},
	}
	for _, dims := range shapes {
		tor := topology.MustNew(dims...)
		for _, c := range cells {
			t.Run(c.name+"/"+tor.String(), func(t *testing.T) {
				got, err := schedule.Collect(tor, c.emit)
				want, refErr := c.ref(tor)
				if (err != nil) != (refErr != nil) {
					t.Fatalf("builder error %v, reference error %v", err, refErr)
				}
				if want != nil {
					// Every node does what node 0 does: the builders
					// declare the lattice of period 1, which the
					// reference does not record.
					want.Lattice = 1
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatal("schedule differs from the TakeIf reference")
				}
			})
		}
	}
}

// TestDirectScheduleMatchesReference holds EmitDirect's one-backing
// layout to the append-built reference, multi-leg routes included.
func TestDirectScheduleMatchesReference(t *testing.T) {
	for _, dims := range [][]int{{8, 8}, {12, 8}, {4, 4, 4}} {
		tor := topology.MustNew(dims...)
		sc, err := schedule.Collect(tor, EmitDirect)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sc, refDirect(tor)) {
			t.Fatalf("%s: schedule differs from the append-built reference", tor)
		}
	}
}

// TestRoundEngineBadTables: a send table that sends blocks at their
// coordinate, and a phase that ends with blocks in flight, are errors
// the engine returns — through the emitters, from EmitSchedule — never
// panics.
func TestRoundEngineBadTables(t *testing.T) {
	tor := topology.MustNew(4, 4)
	r := newRounds(tor)
	send, err := r.setDim(0)
	if err != nil {
		t.Fatal(err)
	}
	for off := range send {
		send[off] = true
	}
	if _, err := r.step(1, false); err != errSendsSettled {
		t.Fatalf("send[0] set: err = %v, want %v", err, errSendsSettled)
	}

	r = newRounds(tor)
	if send, err = r.setDim(0); err != nil {
		t.Fatal(err)
	}
	send[2] = true // offsets 1 and 3 never move
	if _, err := r.step(2, true); err != nil {
		t.Fatal(err)
	}
	if _, err := r.setDim(1); err != errInFlight {
		t.Fatalf("next phase after blocks left in flight: err = %v, want %v", err, errInFlight)
	}
	if err := r.settled(); err != errInFlight {
		t.Fatalf("last phase with blocks in flight: err = %v, want %v", err, errInFlight)
	}
}
