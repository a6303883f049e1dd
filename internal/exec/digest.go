package exec

import (
	"torusx/internal/par"
	"torusx/internal/schedule"
)

// The schedule digest. A program file holds only its replay core, so
// Program.Schedule() rebuilds the schedule from a recorded source and
// checks it against the 64-bit digest Compile wrote into the header.
// Both sides compute it the same way: one hash per transfer over its
// endpoints, declared block count, route legs and payload ids, folded
// in transfer order into a hash per step (in parallel over steps), and
// those folded in schedule order with every phase's name, rearrange
// count and step count and every step's Shared flag. The hash is a
// fixed multiply-xorshift, so the digest is stable across processes,
// builds and hosts.

const digestSeed = 0x6a09e667f3bcc908

// mix folds v into h.
func mix(h, v uint64) uint64 {
	h = (h ^ v) * 0x9e3779b97f4a7c15
	return h ^ h>>31
}

// transferHash hashes one transfer whose route legs are segs.
func transferHash(tr *schedule.Transfer, segs []schedule.Seg) uint64 {
	h := mix(digestSeed, uint64(uint32(tr.Src))<<32|uint64(uint32(tr.Dst)))
	h = mix(h, uint64(tr.Blocks))
	h = mix(h, uint64(len(segs)))
	for _, sg := range segs {
		h = mix(h, uint64(sg.Dim)<<40^uint64(sg.Dir)<<32^uint64(uint32(sg.Hops)))
	}
	pay := tr.Payload
	h = mix(h, uint64(len(pay)))
	for len(pay) >= 2 {
		h = mix(h, uint64(uint32(pay[0]))<<32|uint64(uint32(pay[1])))
		pay = pay[2:]
	}
	if len(pay) == 1 {
		h = mix(h, uint64(uint32(pay[0])))
	}
	return h
}

// foldDigest folds the per-step hashes, in schedule order, with the
// phase records and the steps' Shared flags into the schedule digest.
func foldDigest(phases []phaseRec, shared []bool, stepHash []uint64) uint64 {
	d := mix(digestSeed, uint64(len(phases)))
	k := 0
	for _, ph := range phases {
		d = mix(d, uint64(len(ph.name)))
		for i := 0; i < len(ph.name); i++ {
			d = mix(d, uint64(ph.name[i]))
		}
		d = mix(d, uint64(ph.rearrange))
		d = mix(d, uint64(ph.steps))
		for range ph.steps {
			sh := uint64(0)
			if shared[k] {
				sh = 1
			}
			d = mix(mix(d, sh), stepHash[k])
			k++
		}
	}
	return d
}

// scheduleDigest computes sc's digest as Compile's lowering does.
func scheduleDigest(sc *schedule.Schedule) uint64 {
	phases := make([]phaseRec, len(sc.Phases))
	steps := make([]*schedule.Step, 0, sc.NumSteps())
	shared := make([]bool, 0, sc.NumSteps())
	for pi := range sc.Phases {
		ph := &sc.Phases[pi]
		phases[pi] = phaseRec{name: ph.Name, rearrange: ph.Rearrange, steps: len(ph.Steps)}
		for si := range ph.Steps {
			steps = append(steps, &ph.Steps[si])
			shared = append(shared, ph.Steps[si].Shared)
		}
	}
	stepHash := make([]uint64, len(steps))
	par.ForEach(0, len(steps), func(lo, hi int) {
		var one [1]schedule.Seg
		for si := lo; si < hi; si++ {
			h := uint64(digestSeed)
			for i := range steps[si].Transfers {
				tr := &steps[si].Transfers[i]
				h = mix(h, transferHash(tr, routeLegs(tr, &one)))
			}
			stepHash[si] = h
		}
	})
	return foldDigest(phases, shared, stepHash)
}
