package main

import (
	"fmt"
	"sort"
	"time"

	"torusx/internal/block"
	"torusx/internal/exec"
)

// The delivery oracle is the benchmark's own: it does not trust the
// check exec runs after every replay, so outputs stay checked if that
// check moves behind a flag. After an all-to-all exchange over n nodes,
// node v holds exactly one block from each origin, and every block it
// holds is addressed to v.

// checkBuffers checks the per-node buffers RunArena returns.
func checkBuffers(bufs []*block.Buffer, n int) error {
	if len(bufs) != n {
		return fmt.Errorf("oracle: %d node buffers, want %d", len(bufs), n)
	}
	seen := make([]int, n)
	for v, buf := range bufs {
		blocks := buf.View()
		if len(blocks) != n {
			return fmt.Errorf("oracle: node %d holds %d blocks, want %d", v, len(blocks), n)
		}
		for _, b := range blocks {
			if err := mark(seen, v, int(b.Origin), int(b.Dest)); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkDense checks a ReplayInto destination: dense block ids
// (origin·n + dest), node v's at p.DeliveryOffset(v).
func checkDense(p *exec.Program, dst []int32, n int) error {
	seen := make([]int, n)
	for v := 0; v < n; v++ {
		ids := dst[p.DeliveryOffset(v):p.DeliveryOffset(v+1)]
		if len(ids) != n {
			return fmt.Errorf("oracle: node %d holds %d blocks, want %d", v, len(ids), n)
		}
		for _, id := range ids {
			if err := mark(seen, v, int(id)/n, int(id)%n); err != nil {
				return err
			}
		}
	}
	return nil
}

// mark records that node v holds a block from origin to dest; seen[o]
// holds 1 + the last node found holding origin o's block.
func mark(seen []int, v, origin, dest int) error {
	if dest != v {
		return fmt.Errorf("oracle: node %d holds a block addressed to %d", v, dest)
	}
	if origin < 0 || origin >= len(seen) {
		return fmt.Errorf("oracle: node %d holds a block from unknown origin %d", v, origin)
	}
	if seen[origin] == v+1 {
		return fmt.Errorf("oracle: node %d holds two blocks from origin %d", v, origin)
	}
	seen[origin] = v + 1
	return nil
}

// memmoveNs times copy between two []int32 buffers of the given size:
// the median of enough copies to fill about 20 ms, after one warm-up
// copy. It is the in-process roofline a replay moving that many bytes
// is compared against.
func memmoveNs(bytes int64) float64 {
	n := max(bytes/4, 1)
	src, dst := make([]int32, n), make([]int32, n)
	for i := range src {
		src[i] = int32(i)
	}
	copy(dst, src)
	var times []float64
	for total := time.Duration(0); len(times) < 5 || total < 20*time.Millisecond; {
		start := time.Now()
		copy(dst, src)
		d := time.Since(start)
		total += d
		times = append(times, float64(d.Nanoseconds()))
	}
	sort.Float64s(times)
	return times[len(times)/2]
}
