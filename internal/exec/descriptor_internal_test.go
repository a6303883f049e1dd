package exec

import (
	"math/rand"
	"slices"
	"testing"
)

// coalesceDescs appends pos, a gather's source log positions in order,
// to dst as strided descriptors: the element-wise front end of
// coalesceRuns, each position a run of one.
func coalesceDescs(dst []xdesc, pos []int32) []xdesc {
	var rs []run
	for _, s := range pos {
		rs = appendRun(rs, s, 1)
	}
	return coalesceRuns(dst, rs)
}

// expandDescs flattens a descriptor list back to the position list it
// encodes, in order.
func expandDescs(descs []xdesc) []int32 {
	var out []int32
	for _, d := range descs {
		s := d.start
		for c := int32(0); c < d.count; c++ {
			for b := int32(0); b < d.blocklen; b++ {
				out = append(out, s+b)
			}
			s += d.stride
		}
	}
	return out
}

// TestCoalesceDescsLossless is the recognizer's core property: for any
// position list — strided, blocked, reversed, permuted, or random —
// the coalesced descriptors must expand back to exactly the original
// list, element for element. Every replay gather rides on this.
func TestCoalesceDescsLossless(t *testing.T) {
	cases := [][]int32{
		{},
		{0},
		{7},
		{0, 1, 2, 3},
		{3, 2, 1, 0},
		{0, 4, 8, 12},
		{12, 8, 4, 0},
		{0, 1, 4, 5, 8, 9},       // blocklen 2, stride 4
		{5, 6, 7, 1, 2, 3, 9},    // blocks with a tail
		{0, 2, 1, 3},             // not expressible as one stride
		{10, 10, 10},             // repeated positions (id duplication)
		{0, 100, 3, 99, 4, 5, 6}, // jumps
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 50; i++ {
		n := rng.Intn(64)
		pos := make([]int32, n)
		for j := range pos {
			pos[j] = int32(rng.Intn(256))
		}
		cases = append(cases, pos)
	}
	// Structured random: strided runs with random parameters, the shapes
	// permutation gathers actually produce.
	for i := 0; i < 50; i++ {
		var pos []int32
		base := int32(rng.Intn(32))
		for r := 0; r < 1+rng.Intn(4); r++ {
			count, blocklen := int32(1+rng.Intn(5)), int32(1+rng.Intn(5))
			stride := int32(rng.Intn(16)) - 8
			if stride == 0 {
				stride = blocklen
			}
			s := base
			for c := int32(0); c < count; c++ {
				for b := int32(0); b < blocklen; b++ {
					pos = append(pos, s+b)
				}
				s += stride
			}
			base += 64
		}
		cases = append(cases, pos)
	}
	for ci, pos := range cases {
		got := expandDescs(coalesceDescs(nil, pos))
		if len(got) != len(pos) {
			t.Fatalf("case %d: expansion has %d positions, want %d (%v vs %v)", ci, len(got), len(pos), got, pos)
		}
		for j := range pos {
			if got[j] != pos[j] {
				t.Fatalf("case %d: expansion[%d] = %d, want %d\nin:  %v\nout: %v", ci, j, got[j], pos[j], pos, got)
			}
		}
	}
}

// TestDescStoreMatchesAppend: gathers appended to a descStore across
// its chunk boundaries read back, through the offsets and counts end
// returns, exactly the descriptors coalescing each gather alone gives.
func TestDescStoreMatchesAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var st descStore
	for round := 0; round < 2; round++ {
		st.n = 0 // reuse, as the pooled planner scratch does
		for i := 0; i < 400; i++ {
			pos := make([]int32, 1+rng.Intn(40))
			for j := range pos {
				pos[j] = int32(rng.Intn(64))
			}
			want := coalesceDescs(nil, pos)
			var rs []run
			for _, s := range pos {
				rs = appendRun(rs, s, 1)
			}
			off, cnt := st.appendRuns(rs)
			if int(cnt) != len(want) {
				t.Fatalf("round %d run %d: %d descriptors, want %d", round, i, cnt, len(want))
			}
			for k := range want {
				if got := st.at(off + int32(k)); got != want[k] {
					t.Fatalf("round %d run %d: descriptor %d = %+v, want %+v", round, i, k, got, want[k])
				}
			}
		}
		if st.n <= 2*descChunk {
			t.Fatalf("the runs filled %d descriptors, too few to cross two chunk boundaries", st.n)
		}
	}
}

// TestCoalesceRunsMatchElementWise: the planner appends its positions
// as runs, cut wherever a stamp segment ends, so a block may arrive in
// several pieces and one piece may continue the last. For any
// concatenation of runs — contiguous, repeated, reversed or random —
// coalescing them run by run must give exactly the descriptors
// coalesceDescs gives their positions one by one.
func TestCoalesceRunsMatchElementWise(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 2000; i++ {
		var runs []run
		var pos []int32
		next := int32(rng.Intn(64))
		for r := 0; r < rng.Intn(12); r++ {
			var start int32
			switch rng.Intn(4) {
			case 0: // continues the previous run
				start = next
			case 1: // a constant stride from it
				start = next + 3
			case 2: // behind it
				start = next - int32(rng.Intn(8)) - 1
			default:
				start = int32(rng.Intn(128))
			}
			rn := run{start, int32(1 + rng.Intn(5))}
			runs = append(runs, rn)
			for k := int32(0); k < rn.n; k++ {
				pos = append(pos, rn.start+k)
			}
			next = rn.start + rn.n
		}
		prefix := []xdesc{{start: 1, count: 1, blocklen: 1}}
		want := coalesceDescs(append([]xdesc(nil), prefix...), pos)
		var rs []run
		for _, rn := range runs {
			rs = appendRun(rs, rn.start, rn.n)
		}
		got := coalesceRuns(append([]xdesc(nil), prefix...), rs)
		if len(got) != len(want) {
			t.Fatalf("case %d (runs %v): %d descriptors, want %d\n got %+v\nwant %+v", i, runs, len(got), len(want), got, want)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("case %d (runs %v): descriptor %d = %+v, want %+v", i, runs, k, got[k], want[k])
			}
		}
		if got := expandDescs(got[len(prefix):]); len(pos) > 0 && !slices.Equal(got, pos) {
			t.Fatalf("case %d: expansion %v, want %v", i, got, pos)
		}
	}
}

// TestCursorGatherMatchesGather: a cursor that gathers a descriptor
// list in pieces of any size, as the tiled delivery pass does a turn at
// a time, writes exactly what one gather writes. Registry programs
// without log moves deliver through blocklen-1 descriptors only, so
// the blocked and run shapes are held here.
func TestCursorGatherMatchesGather(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	log := make([]int32, 1<<12)
	for i := range log {
		log[i] = int32(i*7 + 1)
	}
	for i := 0; i < 200; i++ {
		var descs []xdesc
		for r := 0; r < 1+rng.Intn(5); r++ {
			d := xdesc{count: int32(1 + rng.Intn(6)), blocklen: int32(1 + rng.Intn(6)), stride: int32(rng.Intn(33) - 16)}
			if d.stride == 0 {
				d.stride = d.blocklen
			}
			d.start = 1024 + int32(rng.Intn(1024))
			descs = append(descs, d)
		}
		want := make([]int32, expandedLen(descs))
		gather(want, log, descs)
		got := make([]int32, len(want))
		var c cursor
		for off := 0; off < len(got); {
			end := min(off+1+rng.Intn(9), len(got))
			c.gather(got[off:end], log, descs)
			off = end
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("case %d (%+v): element %d = %d, want %d", i, descs, j, got[j], want[j])
			}
		}
		if c.d != len(descs) || c.k != 0 {
			t.Fatalf("case %d: cursor ends at %+v, want descriptor %d", i, c, len(descs))
		}
	}
}
