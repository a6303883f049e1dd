package exec

import (
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"torusx/internal/schedule"
	"torusx/internal/topology"
)

// TestReciprocalExact holds the delivery pass's reciprocal division to
// / and % for every node count a decoder accepts (maxDecodeBlocks
// bounds n at 8192) and at the largest n whose n² ids fit an int32:
// every id for n <= 64, and above that the ids around each multiple of
// n that can go wrong first, the ends of the range and random ids.
func TestReciprocalExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(n int, x uint32, recip uint64) {
		q := divRecip(x, recip)
		if r := x - q*uint32(n); q != x/uint32(n) || r != x%uint32(n) {
			t.Fatalf("n=%d id=%d: reciprocal gives %d rem %d, want %d rem %d", n, x, q, r, x/uint32(n), x%uint32(n))
		}
	}
	ns := []int{8192, 46340}
	for n := 1; n <= 1024; n++ {
		ns = append(ns, n)
	}
	for _, n := range ns {
		recip := reciprocal(n)
		top := uint32(n) * uint32(n)
		if n <= 64 {
			for x := uint32(0); x < top; x++ {
				check(n, x, recip)
			}
			continue
		}
		for _, k := range []uint32{1, 2, 3, uint32(n) / 2, uint32(n) - 2, uint32(n) - 1} {
			for _, x := range []uint32{k*uint32(n) - 1, k * uint32(n), k*uint32(n) + 1} {
				check(n, x, recip)
			}
		}
		for _, x := range []uint32{0, 1, top - uint32(n), top - 2, top - 1} {
			check(n, x, recip)
		}
		for i := 0; i < 1000; i++ {
			check(n, uint32(rng.Int63n(int64(top))), recip)
		}
	}
}

// TestDeliveryChecksAddressing: the delivery pass is the per-run guard
// against corrupted program or arena state. An arena whose log holds a
// block addressed to the wrong node, or an id outside the block space,
// must fail both entry points with a misdelivery error and never be
// pooled again.
func TestDeliveryChecksAddressing(t *testing.T) {
	tor := topology.MustNew(2)
	sc := &schedule.Schedule{Fabric: tor, Phases: []schedule.Phase{{
		Name: "swap",
		Steps: []schedule.Step{{Transfers: []schedule.Transfer{
			{Src: 0, Dst: 1, Dim: 0, Dir: topology.Pos, Hops: 1, Blocks: 1, Payload: []int32{1}},
			{Src: 1, Dst: 0, Dim: 0, Dir: topology.Pos, Hops: 1, Blocks: 1, Payload: []int32{2}},
		}}},
	}}}
	p, err := Compile(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []int32{0, 99, -1} { // B[0,0] everywhere, then ids outside [0, n²)
		for _, serial := range []bool{true, false} {
			a := p.NewArena()
			for i := range a.log {
				a.log[i] = bad
			}
			_, err := p.RunArena(a, Options{Serial: serial})
			if err == nil || !strings.Contains(err.Error(), "misdelivered") {
				t.Fatalf("log of id %d, serial=%v: RunArena err = %v, want a misdelivery", bad, serial, err)
			}
			a = p.NewArena()
			for i := range a.log {
				a.log[i] = bad
			}
			err = p.ReplayInto(a, make([]int32, p.DeliverySize()), Options{Serial: serial})
			if err == nil || !strings.Contains(err.Error(), "misdelivered") {
				t.Fatalf("log of id %d, serial=%v: ReplayInto err = %v, want a misdelivery", bad, serial, err)
			}
			if !a.bad {
				t.Fatalf("log of id %d: arena that misdelivered is still poolable", bad)
			}
		}
	}
}

// TestHugePageRange: the range a block log is advised onto huge pages
// over lies inside the log, starts and ends on 2 MiB boundaries and
// covers every whole 2 MiB page the log spans, so it is empty for a
// nil log and for logs that span no whole page.
func TestHugePageRange(t *testing.T) {
	const page = hugePage / 4 // int32s per huge page
	backing := make([]int32, 3*page)
	check := func(s []int32) (lo, hi int) {
		t.Helper()
		lo, hi = hugePageRange(s)
		if lo < 0 || hi < lo || hi > len(s) {
			t.Fatalf("range [%d, %d) of a %d-element slice", lo, hi, len(s))
		}
		if lo == hi {
			lo, hi = 0, 0
		} else if a := uintptr(unsafe.Pointer(&s[lo])); a%hugePage != 0 || (hi-lo)%page != 0 {
			t.Fatalf("range [%d, %d) starts at %#x, not on whole 2 MiB pages", lo, hi, a)
		}
		if len(s) > 0 {
			base := uintptr(unsafe.Pointer(&s[0]))
			first := (base + hugePage - 1) &^ (hugePage - 1)
			whole := (base+4*uintptr(len(s)))&^(hugePage-1) > first
			if whole != (lo < hi) || whole && (uintptr(4*lo) != first-base || len(s)-hi >= page) {
				t.Fatalf("range [%d, %d) of a %d-element slice at %#x misses a whole page", lo, hi, len(s), base)
			}
		}
		return lo, hi
	}
	if lo, hi := check(nil); lo != hi {
		t.Fatalf("nil slice: range [%d, %d)", lo, hi)
	}
	lo, hi := check(backing)
	if hi-lo < 2*page {
		t.Fatalf("6 MiB slice: range [%d, %d) holds fewer than two whole pages", lo, hi)
	}
	for _, c := range []struct {
		s    []int32
		want int // whole pages
	}{
		{backing[lo : lo+page], 1},
		{backing[lo : lo+page-1], 0},
		{backing[lo+1 : lo+2*page-1], 0},
		{backing[lo+1 : lo+2*page], 1},
		{backing[lo : lo+1], 0},
		{backing[lo:lo], 0},
	} {
		if l, h := check(c.s); (h-l)/page != c.want {
			t.Fatalf("slice of %d elements from page offset %d: range [%d, %d), want %d whole pages",
				len(c.s), uintptr(unsafe.Pointer(unsafe.SliceData(c.s)))%hugePage, l, h, c.want)
		}
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		a := rng.Intn(len(backing))
		check(backing[a : a+rng.Intn(len(backing)-a+1)])
	}
}
