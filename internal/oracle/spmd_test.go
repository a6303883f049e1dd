package oracle

import (
	"sync"
	"testing"

	"torusx/internal/block"
	"torusx/internal/topology"
)

func TestRunSPMDRejectsInvalidTori(t *testing.T) {
	if _, err := RunSPMD(topology.MustNew(16)); err == nil {
		t.Fatal("1D should be rejected")
	}
	if _, err := RunSPMD(topology.MustNew(10, 8)); err == nil {
		t.Fatal("non-multiple-of-four should be rejected")
	}
}

func TestConcurrentRunDelivers(t *testing.T) {
	for _, dims := range [][]int{{8, 8}, {12, 8}, {12, 12}, {8, 8, 8}, {8, 8, 4, 4}} {
		res, err := RunSPMD(topology.MustNew(dims...))
		if err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		if err := Conservation(res.Torus, res.Buffers); err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		if err := Delivered(res.Torus, res.Buffers); err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
	}
}

func TestAgreesWithLockStepExecutor(t *testing.T) {
	for _, dims := range [][]int{{12, 8}, {8, 8, 8}} {
		tor := topology.MustNew(dims...)
		conc, err := RunSPMD(tor)
		if err != nil {
			t.Fatal(err)
		}
		lock, err := Run(topology.MustNew(dims...), Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range conc.Buffers {
			if got, want := sortedBlocks(conc.Buffers[i]), sortedBlocks(lock.Buffers[i]); !equalBlocks(got, want) {
				t.Fatalf("%v: node %d buffers differ between backends", dims, i)
			}
		}
	}
}

func sortedBlocks(buf *Buffer) []block.Block {
	bs := buf.All()
	for i := 1; i < len(bs); i++ {
		for j := i; j > 0 && less(bs[j], bs[j-1]); j-- {
			bs[j], bs[j-1] = bs[j-1], bs[j]
		}
	}
	return bs
}

func less(a, b block.Block) bool {
	if a.Origin != b.Origin {
		return a.Origin < b.Origin
	}
	return a.Dest < b.Dest
}

func equalBlocks(a, b []block.Block) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestMessageCount(t *testing.T) {
	// 8x8: group phases: each node active s <= ringLen-1 = 1 step per
	// phase -> 2 messages; quad 2; bit 2. Total 6 per node x 64 nodes.
	res, err := RunSPMD(topology.MustNew(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	if want := 6 * 64; res.MessagesSent != want {
		t.Fatalf("MessagesSent = %d, want %d", res.MessagesSent, want)
	}
}

func TestBarrier(t *testing.T) {
	const parties = 8
	const rounds = 50
	b := newBarrier(parties)
	var mu sync.Mutex
	counts := make([]int, rounds)
	var wg sync.WaitGroup
	wg.Add(parties)
	for p := 0; p < parties; p++ {
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				mu.Lock()
				counts[r]++
				// No party may be a full round ahead.
				if r > 0 && counts[r-1] != parties {
					t.Errorf("round %d entered before round %d completed", r, r-1)
				}
				mu.Unlock()
				b.wait()
			}
		}()
	}
	wg.Wait()
	for r, c := range counts {
		if c != parties {
			t.Fatalf("round %d saw %d parties", r, c)
		}
	}
}

func TestRaceSmall(t *testing.T) {
	// Small shape exercised repeatedly; meaningful under -race.
	for i := 0; i < 10; i++ {
		res, err := RunSPMD(topology.MustNew(8, 4))
		if err != nil {
			t.Fatal(err)
		}
		if err := Delivered(res.Torus, res.Buffers); err != nil {
			t.Fatal(err)
		}
	}
}
