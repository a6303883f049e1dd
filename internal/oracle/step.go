package oracle

import (
	"torusx/internal/schedule"
	"torusx/internal/topology"
)

// The map-based step checks below are the reference that the tests
// hold exec.Compile's one-port and contention checks, and its sharing
// factor, to. Production code checks and measures every step through
// exec.Compile alone.

// CheckStepOnePort validates the one-port model for a single step: no
// node sends or receives more than one message. It returns the first
// violation found, or nil.
func CheckStepOnePort(phase string, stepIndex int, s *schedule.Step) error {
	senders := make(map[topology.NodeID]schedule.Transfer)
	receivers := make(map[topology.NodeID]schedule.Transfer)
	for _, tr := range s.Transfers {
		if prev, dup := senders[tr.Src]; dup {
			return &schedule.OnePortError{Phase: phase, Step: stepIndex, Node: tr.Src, Role: "send", A: prev, B: tr}
		}
		senders[tr.Src] = tr
		if prev, dup := receivers[tr.Dst]; dup {
			return &schedule.OnePortError{Phase: phase, Step: stepIndex, Node: tr.Dst, Role: "receive", A: prev, B: tr}
		}
		receivers[tr.Dst] = tr
	}
	return nil
}

// CheckStep validates contention-freedom and the one-port model for a
// single step, ignoring the step's Shared declaration. It returns the
// first violation found, or nil. Contention is checked per contention
// domain, which on the torus and the dragonfly is per link.
func CheckStep(f topology.Fabric, phase string, stepIndex int, s *schedule.Step) error {
	if err := CheckStepOnePort(phase, stepIndex, s); err != nil {
		return err
	}
	type claim struct {
		l  topology.Link
		tr schedule.Transfer
	}
	domains := make(map[int]claim)
	for _, tr := range s.Transfers {
		for _, l := range tr.PathLinks(f) {
			d := f.ContentionDomain(f.LinkID(l))
			if prev, dup := domains[d]; dup {
				return &schedule.ContentionError{Phase: phase, Step: stepIndex, Link: l, A: prev.tr, B: tr}
			}
			domains[d] = claim{l: l, tr: tr}
		}
	}
	return nil
}

// Check validates every step of sc, returning the first violation
// found, or nil. Steps declared Shared are held to the one-port model
// only (their link time-sharing is priced, not forbidden); all other
// steps must additionally be link-disjoint.
func Check(sc *schedule.Schedule) error {
	var firstErr error
	sc.EachStep(func(p *schedule.Phase, si int, s *schedule.Step) {
		if firstErr != nil {
			return
		}
		if s.Shared {
			firstErr = CheckStepOnePort(p.Name, si, s)
		} else {
			firstErr = CheckStep(sc.Fabric, p.Name, si, s)
		}
	})
	return firstErr
}

// SharingFactor returns the largest number of transfers in s that
// traverse any single contention domain of f — the step's wormhole
// serialization factor (1 when the step is link-disjoint). On fabrics
// where every link is its own domain (torus, dragonfly) this is
// per-link sharing.
func SharingFactor(f topology.Fabric, s *schedule.Step) int {
	use := make(map[int]int)
	max := 1
	for _, tr := range s.Transfers {
		for _, l := range tr.PathLinks(f) {
			d := f.ContentionDomain(f.LinkID(l))
			use[d]++
			if use[d] > max {
				max = use[d]
			}
		}
	}
	return max
}
