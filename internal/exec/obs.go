package exec

import (
	"sync/atomic"

	"torusx/internal/obs"
)

// Process-wide observability of the executor's shared state: the
// arenas' acquire/release/create traffic and the replay and compile
// counters, exported as pull-based metrics on the default obs
// registry. Registration happens once at init; the hooks read live
// atomics only when a dump or scrape asks, so the replay paths stay
// untouched.

// arenaAcquires and arenaReleases count AcquireArena/ReleaseArena
// calls across every program in the process; a widening gap means
// arenas are being dropped (error-poisoned runs) or leaked instead of
// kept. arenaCreates counts NewArena calls, AcquireArena's fallbacks
// included: under steady replay of retained programs it stays flat,
// and any rise is an arena rebuilt (and its log re-faulted).
var arenaAcquires, arenaReleases, arenaCreates atomic.Int64

// Replay counters, bumped once per successful compiled replay
// (noteReplay — plain atomic adds, so the guarded replay paths stay
// allocation-free): replays run and the bytes their gathers moved.
var (
	replayDescRuns   atomic.Int64
	replayBytesMoved atomic.Int64
)

// compileDescPrograms counts compiled replayable programs, each
// carrying a descriptor plan.
var compileDescPrograms atomic.Int64

// noteReplay records one successful compiled replay on the process
// counters.
func noteReplay(p *Program) {
	replayDescRuns.Add(1)
	replayBytesMoved.Add(p.BytesMoved())
}

func init() {
	reg := obs.Default()
	reg.CounterFunc("exec.arena.acquires", arenaAcquires.Load)
	reg.CounterFunc("exec.arena.releases", arenaReleases.Load)
	reg.CounterFunc("exec.arena.creates", arenaCreates.Load)
	reg.CounterFunc("exec.replay.desc_runs", replayDescRuns.Load)
	reg.CounterFunc("exec.replay.bytes_moved", replayBytesMoved.Load)
	reg.CounterFunc("exec.compile.desc_programs", compileDescPrograms.Load)
}
