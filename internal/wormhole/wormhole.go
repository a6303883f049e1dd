// Package wormhole is a flit-level simulator of wormhole switching,
// the switching technique of the paper's target architecture
// (Section 2). Messages advance one flit per link per cycle; the
// header flit acquires each link of its path in turn and the message
// holds every acquired link until its tail flit has passed, so a
// blocked header stalls the whole worm in place.
//
// The simulator complements the structural contention checker in
// package schedule: a step that the checker accepts must complete in
// exactly hops + flits cycles for every message (perfect pipelining),
// while steps with link conflicts serialize — which is measurable with
// Simulate and is used by the direction-split ablation.
//
// Model details: single-flit link buffers; all links advance once per
// cycle; messages are processed in id order, each downstream-first, so
// a pipelined worm advances as a unit (standard synchronous wormhole
// model). A link released by a message's tail in cycle T may be
// acquired by another header in the same cycle (cut-through
// arbitration); this is deterministic and at most one cycle optimistic
// per handoff.
package wormhole

import (
	"fmt"

	"torusx/internal/schedule"
	"torusx/internal/topology"
)

// Message is one wormhole message: Flits flits (including the header)
// following Path, a list of consecutive unidirectional links.
type Message struct {
	ID    int
	Path  []topology.Link
	Flits int
}

// Stats is the outcome of a simulation.
type Stats struct {
	// Cycles is the cycle in which the last message completed.
	Cycles int
	// Completion[i] is the cycle in which message i's tail flit was
	// consumed at its destination.
	Completion []int
	// HeaderStalls is the total number of cycles any header spent
	// blocked waiting for a link held by another message.
	HeaderStalls int
	// LinkBusy counts, per physical link, the cycles the link was held
	// by some worm. Populated only by the Tracked entry points; the
	// plain Simulate leaves it nil and pays nothing for it.
	LinkBusy map[topology.Link]int
}

// msgState is the in-flight state of one message.
type msgState struct {
	m         Message
	path      []int32 // m.Path interned to dense link ids
	slots     []int   // slots[j] = flit index occupying path link j, or -1
	injected  int     // flits injected so far
	delivered int     // flits consumed at the destination
	acquired  int     // links owned: path[0:acquired]
	done      bool
}

// Simulate runs messages to completion. It fails at the first cycle
// in which no flit can move (a deadlock), or after maxCycles.
func Simulate(msgs []Message, maxCycles int) (Stats, error) {
	return simulate(msgs, maxCycles, false)
}

// SimulateTracked is Simulate with per-link occupancy accounting: the
// returned Stats.LinkBusy maps every link to the number of cycles it
// was held. Tracking walks the held-link set once per cycle, so it is
// opt-in rather than the default.
func SimulateTracked(msgs []Message, maxCycles int) (Stats, error) {
	return simulate(msgs, maxCycles, true)
}

func simulate(msgs []Message, maxCycles int, trackLinks bool) (Stats, error) {
	// Intern the distinct links touched by any path into dense local
	// ids, once, up front: the per-cycle loops then index flat arrays
	// instead of hashing topology.Link keys, and the tracked-occupancy
	// accounting becomes an array sweep. Link values reappear only at
	// the boundary, when the dense counters convert back to the public
	// LinkBusy map.
	intern := make(map[topology.Link]int32)
	var linkAt []topology.Link // dense id -> Link
	states := make([]*msgState, len(msgs))
	for i, m := range msgs {
		if m.Flits < 1 {
			return Stats{}, fmt.Errorf("wormhole: message %d has %d flits", m.ID, m.Flits)
		}
		if len(m.Path) == 0 {
			return Stats{}, fmt.Errorf("wormhole: message %d has empty path", m.ID)
		}
		st := &msgState{m: m, path: make([]int32, len(m.Path)), slots: make([]int, len(m.Path))}
		for j, l := range m.Path {
			id, ok := intern[l]
			if !ok {
				id = int32(len(linkAt))
				intern[l] = id
				linkAt = append(linkAt, l)
			}
			st.path[j] = id
			st.slots[j] = -1
		}
		states[i] = st
	}
	owner := make([]int32, len(linkAt)) // link id -> message index + 1, 0 = free
	var busy []int32                    // link id -> cycles held (tracked only)
	if trackLinks {
		busy = make([]int32, len(linkAt))
	}
	stats := Stats{Completion: make([]int, len(msgs))}
	remaining := len(msgs)

	for cycle := 1; remaining > 0; cycle++ {
		if cycle > maxCycles {
			return stats, fmt.Errorf("wormhole: not complete after %d cycles (deadlock or extreme contention; %d messages left)", maxCycles, remaining)
		}
		moved := false
		for mi, st := range states {
			if st.done {
				continue
			}
			last := len(st.path) - 1
			// Downstream-first so the worm advances as a pipeline.
			for j := last; j >= 0; j-- {
				f := st.slots[j]
				if f < 0 {
					continue
				}
				if j == last {
					// Consume at destination.
					st.slots[j] = -1
					st.delivered++
					moved = true
					if f == st.m.Flits-1 {
						// Tail leaves the link: release it.
						owner[st.path[j]] = 0
						st.done = true
						stats.Completion[mi] = cycle
						remaining--
					}
					continue
				}
				// Advance into path[j+1] if possible.
				if st.slots[j+1] >= 0 {
					continue // downstream buffer occupied by our own flit
				}
				if j+1 >= st.acquired {
					// Header must acquire the next link.
					if owner[st.path[j+1]] != 0 {
						stats.HeaderStalls++
						continue
					}
					owner[st.path[j+1]] = int32(mi + 1)
					st.acquired = j + 2
				}
				st.slots[j+1] = f
				st.slots[j] = -1
				moved = true
				if f == st.m.Flits-1 {
					owner[st.path[j]] = 0
				}
			}
			// Injection into path[0].
			if st.injected < st.m.Flits && st.slots[0] < 0 {
				if st.acquired == 0 {
					if owner[st.path[0]] != 0 {
						stats.HeaderStalls++
						continue
					}
					owner[st.path[0]] = int32(mi + 1)
					st.acquired = 1
				}
				st.slots[0] = st.injected
				st.injected++
				moved = true
			}
		}
		if !moved {
			// Nothing moved, so nothing was acquired or released: the
			// next cycle starts from the same state and would move
			// nothing either.
			return stats, fmt.Errorf("wormhole: deadlock at cycle %d: no flit can move (%d messages left)", cycle, remaining)
		}
		if trackLinks {
			// Links held at the end of the cycle were busy during it.
			for id, o := range owner {
				if o != 0 {
					busy[id]++
				}
			}
		}
		stats.Cycles = cycle
	}
	if trackLinks {
		stats.LinkBusy = make(map[topology.Link]int, len(linkAt))
		for id, b := range busy {
			if b > 0 {
				stats.LinkBusy[linkAt[id]] = int(b)
			}
		}
	}
	return stats, nil
}

// FromStep converts a schedule step into wormhole messages:
// each transfer becomes one worm of 1 + blocks×flitsPerBlock flits
// (header plus payload) following the transfer's full — possibly
// multi-dimensional — route.
func FromStep(t *topology.Torus, s *schedule.Step, flitsPerBlock int) []Message {
	msgs := make([]Message, 0, len(s.Transfers))
	for i, tr := range s.Transfers {
		msgs = append(msgs, Message{
			ID:    i,
			Path:  tr.PathLinks(t),
			Flits: 1 + tr.Blocks*flitsPerBlock,
		})
	}
	return msgs
}
