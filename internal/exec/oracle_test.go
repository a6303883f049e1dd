package exec_test

import (
	"fmt"

	"torusx/internal/block"
	"torusx/internal/exec"
	"torusx/internal/oracle"
	"torusx/internal/schedule"
	trafficpkg "torusx/internal/traffic"
)

// oracleRun is the differential wall's reference: a deliberately naive
// serial executor that shares nothing with Compile's lowering or the
// descriptor replay. Steps are walked strictly in order and checked
// through internal/oracle's own one-port and contention checks;
// the cost terms come from the schedule's own accessors; blocks move
// between per-node block.Buffers, membership tested against the
// buffers themselves (TakeIf extraction counts), so a node can only
// transmit what it holds; delivery is verified by internal/oracle.
// traffic nil means the full all-to-all matrix. The oracle emits no
// telemetry.
func oracleRun(sc *schedule.Schedule, traffic []block.Block) (*exec.Result, error) {
	if sc == nil || sc.Fabric == nil {
		return nil, fmt.Errorf("exec: nil schedule")
	}
	f := sc.Fabric
	res := &exec.Result{Schedule: sc, MaxSharing: 1}
	// Replay whenever any transfer carries payload: a partially
	// annotated schedule is a builder bug, and the per-transfer
	// payload/Blocks check below reports it rather than silently
	// degrading to a structural run.
	replay := false
	sc.EachStep(func(_ *schedule.Phase, _ int, s *schedule.Step) {
		for i := range s.Transfers {
			if len(s.Transfers[i].Payload) > 0 {
				replay = true
			}
		}
	})

	var bufs []*oracle.Buffer
	if replay {
		if traffic == nil {
			traffic = trafficpkg.Full(f.Nodes()).Blocks()
		}
		n := f.Nodes()
		perOrigin := make([]int, n)
		seen := make(map[block.Block]bool, len(traffic))
		for _, b := range traffic {
			if int(b.Origin) < 0 || int(b.Origin) >= n || int(b.Dest) < 0 || int(b.Dest) >= n {
				return nil, fmt.Errorf("exec: traffic block %v out of range", b)
			}
			if seen[b] {
				return nil, fmt.Errorf("exec: duplicate traffic block %v", b)
			}
			seen[b] = true
			perOrigin[b.Origin]++
		}
		bufs = make([]*oracle.Buffer, n)
		for i := range bufs {
			bufs[i] = oracle.NewBuffer(perOrigin[i])
		}
		for _, b := range traffic {
			bufs[b.Origin].Add(b)
		}
	}

	var firstErr error
	sc.EachStep(func(p *schedule.Phase, si int, s *schedule.Step) {
		if firstErr != nil {
			return
		}
		// (1) Validity: one-port always; link-disjointness unless the
		// step declares link time-sharing.
		var err error
		if s.Shared {
			err = oracle.CheckStepOnePort(p.Name, si, s)
		} else {
			err = oracle.CheckStep(f, p.Name, si, s)
		}
		if err != nil {
			firstErr = err
			return
		}
		// (2) Cost: a step lasts as long as its largest message,
		// serialized by the worst per-link sharing when links are
		// time-shared.
		sharing := 1
		if s.Shared {
			sharing = oracle.SharingFactor(f, s)
			if sharing > res.MaxSharing {
				res.MaxSharing = sharing
			}
		}
		res.Measure.Steps++
		res.Measure.Blocks += s.MaxBlocks() * sharing
		res.Measure.Hops += s.MaxHops()
		// (3) Replay: move each transfer's payload from its source
		// buffer to its destination buffer, insisting the sender
		// actually holds every block it claims to transmit.
		if !replay {
			return
		}
		for _, tr := range s.Transfers {
			if len(tr.Payload) != tr.Blocks {
				firstErr = fmt.Errorf("exec: phase %q step %d transfer %v carries %d payload blocks, declares %d",
					p.Name, si, tr, len(tr.Payload), tr.Blocks)
				return
			}
			n := f.Nodes()
			pay := make([]block.Block, len(tr.Payload))
			for k, id := range tr.Payload {
				if id < 0 || int(id) >= n*n {
					firstErr = fmt.Errorf("exec: phase %q step %d: transfer %v payload id %d outside [0, %d)",
						p.Name, si, tr, id, n*n)
					return
				}
				pay[k] = block.FromID(id, n)
			}
			src, dst := tr.Src, tr.Dst
			want := make(map[block.Block]int, len(pay))
			for _, b := range pay {
				want[b]++
			}
			moved, _ := bufs[src].TakeIf(func(b block.Block) bool { return want[b] > 0 })
			if len(moved) != len(pay) {
				// The extraction came up short, so some payload block was
				// not in the source buffer; name the first one in payload
				// order. (A duplicated payload entry lands here too: the
				// buffer holds each block at most once.)
				for _, b := range moved {
					want[b]--
				}
				for _, b := range pay {
					if want[b] > 0 {
						firstErr = fmt.Errorf("exec: phase %q step %d: node %d transmits %v it does not hold",
							p.Name, si, src, b)
						return
					}
				}
				firstErr = fmt.Errorf("exec: phase %q step %d: node %d extracted %d blocks, want %d",
					p.Name, si, src, len(moved), len(pay))
				return
			}
			bufs[dst].Add(moved...)
		}
	})
	if firstErr != nil {
		return nil, firstErr
	}
	res.Measure.RearrangedBlocks = sc.RearrangedBlocks()
	if replay {
		if err := oracle.DeliveredMatrix(f, bufs, traffic); err != nil {
			return nil, err
		}
		res.Replayed = true
		res.Buffers = make([]*block.Buffer, len(bufs))
		for v, b := range bufs {
			res.Buffers[v] = block.NewBuffer(b.Len())
			res.Buffers[v].Add(b.View()...)
		}
	}
	return res, nil
}
