package exec_test

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"torusx/internal/algorithm"
	"torusx/internal/baseline"
	"torusx/internal/block"
	"torusx/internal/exec"
	"torusx/internal/oracle"
	"torusx/internal/schedule"
	"torusx/internal/topology"
)

// cloneSchedule deep-copies sc. Each step's payloads are packed back to
// back, in transfer order, into one fresh backing, each slice's
// capacity reaching to the backing's end, as the registry builders lay
// them out: streaming the copy compiles what streaming sc would, and
// may rewrite the copy's ids, never sc's.
func cloneSchedule(sc *schedule.Schedule) *schedule.Schedule {
	out := &schedule.Schedule{Fabric: sc.Fabric, Lattice: sc.Lattice, Phases: make([]schedule.Phase, len(sc.Phases))}
	for pi, ph := range sc.Phases {
		steps := make([]schedule.Step, len(ph.Steps))
		for si, s := range ph.Steps {
			trs := slices.Clone(s.Transfers)
			total := 0
			for _, tr := range trs {
				total += len(tr.Payload)
			}
			backing := make([]int32, total)
			off := 0
			for i := range trs {
				trs[i].Segs = slices.Clone(trs[i].Segs)
				if len(trs[i].Payload) > 0 {
					n := copy(backing[off:], trs[i].Payload)
					trs[i].Payload = backing[off : off+n]
					off += n
				}
			}
			steps[si] = schedule.Step{Transfers: trs, Shared: s.Shared}
		}
		out.Phases[pi] = schedule.Phase{Name: ph.Name, Rearrange: ph.Rearrange, Steps: steps}
	}
	return out
}

// payLayout places a step's payloads (pays[i] is transfer i's) in
// memory and returns the slices the transfers carry.
type payLayout func(pays [][]int32) [][]int32

// packed lays the payloads back to back in transfer order in one
// backing, each slice's capacity reaching to its end: the layout a
// streamed compile adopts.
func packed(pays [][]int32) [][]int32 {
	return packOrder(pays, make([]int32, total(pays)), nil)
}

// shuffled lays the payloads into one backing with the first transfer's
// at its start, its capacity reaching over the rest, and the others in
// reverse transfer order.
func shuffled(pays [][]int32) [][]int32 {
	order := []int{0}
	for i := len(pays) - 1; i > 0; i-- {
		order = append(order, i)
	}
	return packOrder(pays, make([]int32, total(pays)), order)
}

// split packs the first half of the transfers' payloads into one
// backing, whose capacity would hold them all, and the rest into
// another.
func split(pays [][]int32) [][]int32 {
	k := len(pays) / 2
	out := packOrder(pays[:k], make([]int32, total(pays[:k]), total(pays)), nil)
	return append(out, packed(pays[k:])...)
}

func total(pays [][]int32) int {
	n := 0
	for _, p := range pays {
		n += len(p)
	}
	return n
}

// packOrder copies the payloads into backing back to back, in the given
// transfer order (nil: transfer order), each slice's capacity reaching
// to the backing's end.
func packOrder(pays [][]int32, backing []int32, order []int) [][]int32 {
	out := make([][]int32, len(pays))
	off := 0
	for k := range pays {
		i := k
		if order != nil {
			i = order[k]
		}
		out[i] = backing[off : off+copy(backing[off:], pays[i])]
		off += len(pays[i])
	}
	return out
}

// roundTrip is a schedule on tor that carries every node's blocks to
// its neighbour along dimension 0 and back, then runs the direct
// exchange to deliver them. Node 0 keeps B[0,0] home when short is set,
// so the first step carries one id less than the n*n it carries
// otherwise. Each round-trip step's payloads are placed by layout; the
// way back lists each payload in reverse arrival order.
func roundTrip(tor *topology.Torus, short bool, layout payLayout) *schedule.Schedule {
	n := tor.Nodes()
	there := make([][]int32, n)
	back := make([][]int32, n)
	for v := range there {
		for d := 0; d < n; d++ {
			if short && v == 0 && d == 0 {
				continue
			}
			there[v] = append(there[v], block.Block{Origin: topology.NodeID(v), Dest: topology.NodeID(d)}.ID(n))
		}
		back[v] = slices.Clone(there[v])
		slices.Reverse(back[v])
	}
	step := func(pays [][]int32, dir topology.Direction) schedule.Step {
		pays = layout(pays)
		trs := make([]schedule.Transfer, n)
		for v := range trs {
			src := topology.NodeID(v)
			dst := tor.MoveID(src, 0, 1)
			if dir == topology.Neg {
				src, dst = dst, src
			}
			trs[v] = schedule.Transfer{Src: src, Dst: dst, Dim: 0, Dir: dir, Hops: 1, Blocks: len(pays[v]), Payload: pays[v]}
		}
		return schedule.Step{Transfers: trs}
	}
	sc := &schedule.Schedule{Fabric: tor, Phases: []schedule.Phase{{
		Name:  "round-trip",
		Steps: []schedule.Step{step(there, topology.Pos), step(back, topology.Neg)},
	}}}
	sc.Phases = append(sc.Phases, mustCollect(tor, baseline.EmitDirect).Phases...)
	return sc
}

// TestAdoptedPayloadDifferential: a streamed compile that adopts a
// step's payload ids, checking them and rewriting them in place, writes
// the program Compile writes from a deep copy, in production batches
// and one step per batch, and adopts exactly the steps whose payloads
// lie back to back in one backing and fill at least a page: it rewrites
// those and leaves every other step as the builder emitted it. Once
// BuildProgram returns, nothing keeps an adopted backing reachable, and
// no registry builder shares payload memory across calls.
func TestAdoptedPayloadDifferential(t *testing.T) {
	line := topology.MustNew(128)
	grid := topology.MustNew(16, 16)
	for _, tc := range []struct {
		name    string
		tor     *topology.Torus
		short   bool
		layout  payLayout
		ids     int // the first step's
		adopted bool
	}{
		{"one-page", line, false, packed, exec.IDPage, true},
		{"one-short", line, true, packed, exec.IDPage - 1, false},
		{"several-pages", grid, false, packed, 4 * exec.IDPage, true},
		{"out-of-transfer-order", line, false, shuffled, exec.IDPage, false},
		{"two-backings", line, false, split, exec.IDPage, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := roundTrip(tc.tor, tc.short, tc.layout)
			ids := 0
			for _, tr := range sc.Phases[0].Steps[0].Transfers {
				ids += len(tr.Payload)
			}
			if ids != tc.ids {
				t.Fatalf("the round trip's first step carries %d ids, want %d", ids, tc.ids)
			}
			if err := oracle.Check(sc); err != nil {
				t.Fatalf("schedule invalid: %v", err)
			}
			want := compiledOf(t, func() (*exec.Program, error) { return exec.Compile(cloneSchedule(sc), exec.Options{}) })
			if want.err != "" {
				t.Fatalf("Compile: %s", want.err)
			}
			for _, oneStep := range []bool{false, true} {
				label := "streamed"
				if oneStep {
					label = "one step per batch"
					defer exec.StreamOneStep()()
				}
				kept := roundTrip(tc.tor, tc.short, tc.layout)
				orig := cloneSchedule(kept)
				sameForm(t, label, want, compiledOf(t, func() (*exec.Program, error) {
					return exec.CompileStream(kept.Fabric, emitter(kept), exec.Options{})
				}))
				for si, s := range kept.Phases[0].Steps {
					rewritten := !reflect.DeepEqual(s, orig.Phases[0].Steps[si])
					if rewritten != tc.adopted {
						t.Errorf("%s: round-trip step %d rewritten %v, want adopted %v", label, si, rewritten, tc.adopted)
					}
				}
				if !reflect.DeepEqual(kept.Phases[1:], orig.Phases[1:]) {
					t.Errorf("%s: the direct steps, one id per transfer, were rewritten", label)
				}
			}
		})
	}
	t.Run("ring@16x16", func(t *testing.T) {
		b, err := algorithm.For("ring")
		if err != nil {
			t.Fatal(err)
		}
		sc, err := b.BuildSchedule(grid)
		if err != nil {
			t.Fatal(err)
		}
		checkStreamRow(t, streamRow{
			sc:   cloneSchedule(sc),
			emit: func(s schedule.Sink) error { return b.EmitSchedule(grid, s) },
		})
	})
	t.Run("collectable", func(t *testing.T) { checkAdoptedCollectable(t, grid) })
	t.Run("registry-guard", func(t *testing.T) {
		for _, alg := range coldCells {
			b, err := algorithm.For(alg)
			if err != nil {
				t.Fatal(err)
			}
			before, err := b.BuildSchedule(grid)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := algorithm.BuildProgram(rename(b), grid, exec.Options{}); err != nil {
				t.Fatal(err)
			}
			after, err := b.BuildSchedule(grid)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(before, after) {
				t.Errorf("%s: BuildSchedule after a cold BuildProgram differs from the one before", alg)
			}
		}
	})
}

// renamed is a registry builder under a name of its own, so its first
// BuildProgram misses the process-wide cache and compiles.
type renamed struct {
	algorithm.Builder
	name string
}

var renames atomic.Int64

// rename gives b a name no other builder in the process had.
func rename(b algorithm.Builder) renamed {
	return renamed{b, fmt.Sprintf("%s#adopt-test-%d", b.Name(), renames.Add(1))}
}

func (r renamed) Name() string { return r.name }

// adoptWatch is ring under a name of its own whose steps carry their
// payloads in a backing the test watches: each step of at least a page
// is repacked into a fresh backing with a finalizer.
type adoptWatch struct {
	renamed
	mu      sync.Mutex
	watched int
	freed   int
}

func (w *adoptWatch) EmitSchedule(f topology.Fabric, sink schedule.Sink) error {
	return w.renamed.EmitSchedule(f, adoptWatchSink{w, sink})
}

type adoptWatchSink struct {
	w *adoptWatch
	schedule.Sink
}

func (s adoptWatchSink) Step(st schedule.Step) error {
	var pays [][]int32
	total := 0
	for _, tr := range st.Transfers {
		pays = append(pays, tr.Payload)
		total += len(tr.Payload)
	}
	if total >= exec.IDPage {
		own := packed(pays)
		trs := slices.Clone(st.Transfers)
		for i := range trs {
			trs[i].Payload = own[i]
		}
		st.Transfers = trs
		k := slices.IndexFunc(own, func(p []int32) bool { return len(p) > 0 })
		s.w.mu.Lock()
		s.w.watched++
		s.w.mu.Unlock()
		runtime.SetFinalizer(&own[k][0], func(*int32) {
			s.w.mu.Lock()
			s.w.freed++
			s.w.mu.Unlock()
		})
	}
	return s.Sink.Step(st)
}

// checkAdoptedCollectable: once a cold BuildProgram returns, holding
// its program, one collection frees every backing the compile adopted.
// One, because a second would also empty the scratch pools, and a
// pooled scratch must not keep a backing reachable either.
func checkAdoptedCollectable(t *testing.T, tor *topology.Torus) {
	b, err := algorithm.For("ring")
	if err != nil {
		t.Fatal(err)
	}
	w := &adoptWatch{renamed: rename(b)}
	pg, err := algorithm.BuildProgram(w, tor, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	all := false
	for i := 0; i < 100 && !all; i++ {
		w.mu.Lock()
		all = w.watched > 0 && w.freed == w.watched
		w.mu.Unlock()
		if !all {
			time.Sleep(10 * time.Millisecond)
		}
	}
	runtime.KeepAlive(pg)
	if !all {
		t.Fatalf("%d of %d adopted backings are still reachable after BuildProgram returned", w.watched-w.freed, w.watched)
	}
}
