package schedule

import (
	"errors"

	"torusx/internal/topology"
)

// Sink receives a schedule in order, as its builder emits it: Phase
// opens a phase, and every Step until the next Phase belongs to it.
// Builders emit into a Sink instead of appending to a Schedule, so one
// builder serves both a caller that wants the whole schedule (Collect)
// and one that consumes each step while the next is still being built
// (exec.CompileStream). A builder's one entry point is its emitter,
// func(fabric, [args,] Sink) error.
type Sink interface {
	// Lattice declares the schedule's translation lattice by its period
	// (see Schedule.Lattice), once, before the first phase.
	Lattice(period int)
	// Phase opens a phase of the given name and rearrangement count
	// (see Phase.Rearrange).
	Phase(name string, rearrange int)
	// Step appends s to the open phase; the sink owns s from then on,
	// and the builder must not change anything s references. A sink
	// that owns a step may rewrite its payload ids in place
	// (exec.CompileStream turns them into arrival stamps), so no two
	// steps may share payload memory, and nothing may read a step's
	// payloads once it is emitted. A non-nil error means the sink takes
	// no more steps: the builder stops and returns it.
	Step(s Step) error
}

// ErrNoPhase is the error a sink returns for a step emitted before any
// phase was opened.
var ErrNoPhase = errors.New("schedule: step emitted before any phase")

// collector is the Sink that assembles a Schedule.
type collector struct{ sc *Schedule }

func (c *collector) Lattice(period int) { c.sc.Lattice = period }

func (c *collector) Phase(name string, rearrange int) {
	c.sc.Phases = append(c.sc.Phases, Phase{Name: name, Rearrange: rearrange})
}

func (c *collector) Step(s Step) error {
	if len(c.sc.Phases) == 0 {
		return ErrNoPhase
	}
	ph := &c.sc.Phases[len(c.sc.Phases)-1]
	ph.Steps = append(ph.Steps, s)
	return nil
}

// Collect runs emit on f into a sink that assembles the schedule, and
// returns the schedule, or emit's error. Every builder is an emitter,
// so this is the one place a whole schedule comes from:
// Collect(tor, baseline.EmitRing) is the ring exchange on tor.
func Collect[F topology.Fabric](f F, emit func(F, Sink) error) (*Schedule, error) {
	c := &collector{sc: &Schedule{Fabric: f}}
	if err := emit(f, c); err != nil {
		return nil, err
	}
	return c.sc, nil
}
