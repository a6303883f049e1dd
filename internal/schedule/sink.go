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
// (exec.CompileStream).
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

// Collect runs emit into a sink that assembles the schedule on f, and
// returns the schedule, or emit's error.
func Collect(f topology.Fabric, emit func(Sink) error) (*Schedule, error) {
	c := &collector{sc: &Schedule{Fabric: f}}
	if err := emit(c); err != nil {
		return nil, err
	}
	return c.sc, nil
}

// Emit sends sc's phases and steps to sink in order, stopping at the
// first error a Step returns. The sink owns every step it takes and may
// rewrite its payload ids in place (see Sink.Step), so emit only a
// schedule nobody reads afterwards.
func (sc *Schedule) Emit(sink Sink) error {
	if sc.Lattice > 0 {
		sink.Lattice(sc.Lattice)
	}
	for pi := range sc.Phases {
		ph := &sc.Phases[pi]
		sink.Phase(ph.Name, ph.Rearrange)
		for _, s := range ph.Steps {
			if err := sink.Step(s); err != nil {
				return err
			}
		}
	}
	return nil
}
