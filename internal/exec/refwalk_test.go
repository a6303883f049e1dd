package exec_test

import (
	"testing"

	"torusx/internal/block"
	"torusx/internal/exec"
	"torusx/internal/schedule"
	"torusx/internal/topology"
)

// TestReferenceWalkDifferential pins the reference replay's verdicts
// where its one-touch walk hands over to the exact walk: a block listed
// twice, a block the sender does not hold after blocks it already
// moved, self-transfers, and blocks forwarded within the step that
// delivered them, in payloads listed in and out of arrival order. Each
// row compiles whole and streamed one step per batch to the same
// error, the text pinned here.
func TestReferenceWalkDifferential(t *testing.T) {
	pos := topology.Pos
	const n = 8
	var own []block.Block
	for d := topology.NodeID(0); d < n; d++ {
		own = append(own, blk(1, d))
	}
	// Node 1 holds B[1,0..7] (ids 8-15) at stamps 0-7, so a payload
	// rewritten as stamps differs from its ids; node 2 holds B[2,3].
	traffic := append(own, blk(2, 3))
	hop := func(pay ...block.Block) schedule.Transfer { return ringHop(n, 1, 2, pos, pay...) }
	// fwd is a schedule whose first step moves B[0,2] and B[0,3] to
	// node 1 (stamps 2 and 3 there, after B[1,2] and B[1,3]), and node 1
	// forwards them with B[1,2], listed as order gives, within the same
	// step; later steps deliver every block.
	fwd := func(name string, order ...block.Block) wallRow {
		return ringRow(name, n,
			[]block.Block{blk(0, 2), blk(0, 3), blk(1, 2), blk(1, 3)},
			[]schedule.Transfer{ringHop(n, 0, 1, pos, blk(0, 2), blk(0, 3)), ringHop(n, 1, 2, pos, order...)},
			[]schedule.Transfer{ringHop(n, 1, 2, pos, blk(1, 3)), ringHop(n, 2, 3, pos, blk(0, 3))},
			[]schedule.Transfer{ringHop(n, 2, 3, pos, blk(1, 3))},
		)
	}
	for _, tc := range []struct {
		row wallRow
		err string // the compile's error
	}{
		{
			row: ringRow("adjacent-duplicate", n, traffic, []schedule.Transfer{hop(blk(1, 1), blk(1, 2), blk(1, 2), blk(1, 3))}),
			err: `exec: phase "adjacent-duplicate" step 0: node 1 transmits B[1,2] it does not hold`,
		},
		{
			row: ringRow("distant-duplicate", n, traffic, []schedule.Transfer{hop(blk(1, 1), blk(1, 2), blk(1, 3), blk(1, 4), blk(1, 2))}),
			err: `exec: phase "distant-duplicate" step 0: node 1 transmits B[1,2] it does not hold`,
		},
		{
			row: ringRow("not-held-after-prefix", n, traffic, []schedule.Transfer{hop(blk(1, 1), blk(1, 2), blk(1, 3), blk(2, 3))}),
			err: `exec: phase "not-held-after-prefix" step 0: node 1 transmits B[2,3] it does not hold`,
		},
		{
			row: ringRow("out-of-order-duplicate", n, traffic, []schedule.Transfer{hop(blk(1, 3), blk(1, 1), blk(1, 2), blk(1, 1))}),
			err: `exec: phase "out-of-order-duplicate" step 0: node 1 transmits B[1,1] it does not hold`,
		},
		{
			row: ringRow("not-held-after-duplicate", n, traffic, []schedule.Transfer{hop(blk(1, 3), blk(1, 1), blk(1, 1), blk(2, 3))}),
			err: `exec: phase "not-held-after-duplicate" step 0: node 1 transmits B[1,1] it does not hold`,
		},
		{
			row: ringRow("self-duplicate", n, traffic, []schedule.Transfer{selfCopy(n, 1, blk(1, 1), blk(1, 2), blk(1, 1))}),
			err: `exec: phase "self-duplicate" step 0: node 1 transmits B[1,1] it does not hold`,
		},
		{
			row: fwd("forward-in-order", blk(1, 2), blk(0, 2), blk(0, 3)),
			err: `exec: phase "forward-in-order" step 0: node 1 forwards B[0,2] within the step that delivered it`,
		},
		{
			row: fwd("forward-out-of-order", blk(0, 3), blk(1, 2), blk(0, 2)),
			err: `exec: phase "forward-out-of-order" step 0: node 1 forwards B[0,2] within the step that delivered it`,
		},
	} {
		r := tc.row
		t.Run(r.name, func(t *testing.T) {
			opt := exec.Options{Traffic: r.traffic}
			whole := compiledOf(t, func() (*exec.Program, error) { return exec.Compile(r.sc, opt) })
			if whole.err != tc.err {
				t.Fatalf("Compile: error %q, want %q", whole.err, tc.err)
			}
			restore := exec.StreamOneStep()
			defer restore()
			sameForm(t, "one step per batch", whole, compiledOf(t, func() (*exec.Program, error) {
				return exec.CompileStream(r.sc.Fabric, emitter(cloneSchedule(r.sc)), opt)
			}))
		})
	}
}
