package exchange

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"torusx/internal/block"
	"torusx/internal/oracle"
	"torusx/internal/schedule"
	"torusx/internal/topology"
	"torusx/internal/traffic"
)

// TestPayloadScheduleMatchesRun holds the dense builder to the
// simulator that follows the paper: the same phases, steps, transfers
// and payloads, in the same order. The 12x12x12 and 32x32 rows run
// under -tags bigshapes.
func TestPayloadScheduleMatchesRun(t *testing.T) {
	shapes := [][]int{{4, 4}, {8, 8}, {12, 8}, {16, 16}, {4, 4, 4}, {8, 8, 4}}
	for _, dims := range append(shapes, bigShapes...) {
		t.Run(fmt.Sprint(dims), func(t *testing.T) {
			tor := topology.MustNew(dims...)
			want, err := oracle.Run(tor, oracle.Options{RecordPayloads: true})
			if err != nil {
				t.Fatal(err)
			}
			got, err := schedule.Collect(tor, EmitPayload)
			if err != nil {
				t.Fatal(err)
			}
			// The builder declares the paper's node-group lattice, which
			// the simulator does not record.
			want.Schedule.Lattice = topology.GroupStride
			if !reflect.DeepEqual(got, want.Schedule) {
				t.Fatal(firstScheduleDiff(got, want.Schedule))
			}
		})
	}
}

// firstScheduleDiff names the first phase, step or transfer at which two
// schedules differ.
func firstScheduleDiff(got, want *schedule.Schedule) string {
	if len(got.Phases) != len(want.Phases) {
		return fmt.Sprintf("%d phases, want %d", len(got.Phases), len(want.Phases))
	}
	for p := range want.Phases {
		gp, wp := got.Phases[p], want.Phases[p]
		if gp.Name != wp.Name || gp.Rearrange != wp.Rearrange || len(gp.Steps) != len(wp.Steps) {
			return fmt.Sprintf("phase %d: %q/%d/%d steps, want %q/%d/%d steps",
				p, gp.Name, gp.Rearrange, len(gp.Steps), wp.Name, wp.Rearrange, len(wp.Steps))
		}
		for s := range wp.Steps {
			if !reflect.DeepEqual(gp.Steps[s], wp.Steps[s]) {
				return fmt.Sprintf("phase %q step %d: got %v, want %v", wp.Name, s, gp.Steps[s].Transfers, wp.Steps[s].Transfers)
			}
		}
	}
	return "schedules differ outside their phases"
}

func TestPayloadScheduleErrorsMatchRun(t *testing.T) {
	for _, dims := range [][]int{{10, 10}, {8, 12}, {16}} {
		tor := topology.MustNew(dims...)
		_, want := oracle.Run(tor, oracle.Options{RecordPayloads: true})
		_, got := schedule.Collect(tor, EmitPayload)
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Errorf("%v: got error %v, want %v", dims, got, want)
		}
	}
}

// sparsePayload collects EmitSparsePayload's schedule of blocks on t.
func sparsePayload(t *topology.Torus, blocks []block.Block) (*schedule.Schedule, error) {
	return schedule.Collect(t, func(t *topology.Torus, s schedule.Sink) error {
		return EmitSparsePayload(t, blocks, s)
	})
}

// sparseParity checks EmitSparsePayload against oracle.RunSparse on one
// block list: equal schedules, or equal errors.
func sparseParity(t *testing.T, tor *topology.Torus, blocks []block.Block) {
	t.Helper()
	want, werr := oracle.RunSparse(tor, blocks, oracle.Options{RecordPayloads: true})
	got, gerr := sparsePayload(tor, blocks)
	if werr != nil || gerr != nil {
		if werr == nil || gerr == nil || gerr.Error() != werr.Error() {
			t.Fatalf("%s, %d blocks: got error %v, want %v", tor, len(blocks), gerr, werr)
		}
		return
	}
	if !reflect.DeepEqual(got, want.Schedule) {
		t.Fatalf("%s, %d blocks: %s", tor, len(blocks), firstScheduleDiff(got, want.Schedule))
	}
}

func TestSparsePayloadScheduleMatchesRunSparse(t *testing.T) {
	for _, dims := range [][]int{{8, 8}, {4, 4, 4}} {
		tor := topology.MustNew(dims...)
		n := tor.Nodes()
		for _, spec := range append([]string{"full"}, traffic.CannedSpecs()...) {
			t.Run(fmt.Sprintf("%v/%s", dims, spec), func(t *testing.T) {
				m, err := traffic.ParseSpec(spec, n)
				if err != nil {
					t.Fatal(err)
				}
				sparseParity(t, tor, m.Blocks())
			})
		}
		t.Run(fmt.Sprintf("%v/empty", dims), func(t *testing.T) {
			sparseParity(t, tor, []block.Block{})
		})
	}
}

// fuzzTorusShapes mirrors the shape table of internal/traffic's
// FuzzTorusSparseTraffic, whose seed corpus the parity test below
// decodes the same way.
var fuzzTorusShapes = [][]int{
	{4}, {8}, {2, 2}, {4, 4}, {8, 8}, {4, 4, 4},
}

// TestSparsePayloadScheduleFuzzCorpus runs the parity check on every
// seed of FuzzTorusSparseTraffic: invalid shapes and out-of-range
// blocks must fail with oracle.RunSparse's error, and duplicate blocks ride the
// exchange as oracle.RunSparse carries them.
func TestSparsePayloadScheduleFuzzCorpus(t *testing.T) {
	dir := filepath.Join("..", "traffic", "testdata", "fuzz", "FuzzTorusSparseTraffic")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("empty seed corpus")
	}
	for _, e := range entries {
		t.Run(e.Name(), func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
			lit := strings.TrimSpace(lines[len(lines)-1])
			if !strings.HasPrefix(lit, "[]byte(") || !strings.HasSuffix(lit, ")") {
				t.Fatalf("unexpected corpus line %q", lit)
			}
			s, err := strconv.Unquote(lit[len("[]byte(") : len(lit)-1])
			if err != nil {
				t.Fatal(err)
			}
			data := []byte(s)
			shape := 0
			if len(data) > 0 {
				shape = int(data[0]) % len(fuzzTorusShapes)
				data = data[1:]
			}
			blocks := []block.Block{}
			for i := 0; i+1 < len(data); i += 2 {
				blocks = append(blocks, block.Block{
					Origin: topology.NodeID(int8(data[i])),
					Dest:   topology.NodeID(int8(data[i+1])),
				})
			}
			sparseParity(t, topology.MustNew(fuzzTorusShapes[shape]...), blocks)
		})
	}
}

// TestPayloadScheduleAllocBudget pins the bytes one 16x16 build
// allocates: the measured 2.07 MiB (linux/amd64) plus 25%.
func TestPayloadScheduleAllocBudget(t *testing.T) {
	const maxMiB = 2.6
	tor := topology.MustNew(16, 16)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sc, err := schedule.Collect(tor, EmitPayload)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	scheduleSink = sc
	if got := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); got > maxMiB {
		t.Fatalf("EmitPayload@16x16 allocates %.2f MiB, budget %.2f MiB", got, maxMiB)
	}
}

var scheduleSink *schedule.Schedule

// BenchmarkProposedSchedule16 times the payload schedule of the
// proposed exchange at the cold-start shape, built densely and by the
// block-level simulator.
func BenchmarkProposedSchedule16(b *testing.B) {
	tor := topology.MustNew(16, 16)
	for _, c := range []struct {
		name  string
		build func() (*schedule.Schedule, error)
	}{
		{"dense", func() (*schedule.Schedule, error) { return schedule.Collect(tor, EmitPayload) }},
		{"run", func() (*schedule.Schedule, error) {
			res, err := oracle.Run(tor, oracle.Options{RecordPayloads: true})
			if err != nil {
				return nil, err
			}
			return res.Schedule, nil
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sc, err := c.build()
				if err != nil {
					b.Fatal(err)
				}
				scheduleSink = sc
			}
		})
	}
}

// TestSparseScatterAllocatesBlocks pins what a sparse build allocates
// to O(n + blocks): a root-0 scatter on 64x64 carries 4,095 blocks,
// and its build, schedule included, must stay under 2 MiB. A builder
// with a table indexed by block id allocates n² entries (64 MiB here)
// whatever the block count.
func TestSparseScatterAllocatesBlocks(t *testing.T) {
	const maxMiB = 2.0
	tor := topology.MustNew(64, 64)
	blocks := make([]block.Block, 0, tor.Nodes()-1)
	for d := 1; d < tor.Nodes(); d++ {
		blocks = append(blocks, block.Block{Origin: 0, Dest: topology.NodeID(d)})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sc, err := sparsePayload(tor, blocks)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	scheduleSink = sc
	if got := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); got > maxMiB {
		t.Fatalf("64x64 scatter allocates %.2f MiB, budget %.2f MiB", got, maxMiB)
	}
}
