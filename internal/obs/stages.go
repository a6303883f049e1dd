package obs

// Stage names. Every Request.Stage call in this repository names its
// stage with one of these, so the "stage.<name>.ns" histograms, the
// Prometheus output and the Perfetto stage spans all draw on one list.
// A stage that opens inside another is recorded flat; the trace nests
// it by containment.
const (
	// Serving layer (internal/progcache).
	StageCacheLookup      = "cache-lookup"
	StageSingleflightWait = "singleflight-wait"
	StageTier2Load        = "tier2-load"
	StageTier2Store       = "tier2-store"
	// Building a program (internal/algorithm): schedule construction,
	// the sparse prune pass and the sparse planner's candidate scoring.
	// On a streamed compile (exec.CompileStream, BuildProgram's miss
	// path) plan is the builder's run on its own goroutine, recorded
	// when it ends: it overlaps compile and its passes instead of
	// preceding them.
	StagePlan        = "plan"
	StagePrune       = "prune"
	StagePlanScoring = "plan-scoring"
	// exec.Compile and its passes, which open inside it: lowering the
	// schedule into pooled scratch, the reference replay, the descriptor
	// planner (which writes the file), and sealing and proving the file.
	// A streamed compile lowers and reference-replays batch by batch;
	// each of the two is recorded as one span of its summed time,
	// opened when it first ran.
	StageCompile         = "compile"
	StageLower           = "lower"
	StageReferenceReplay = "reference-replay"
	StagePlanDescriptors = "plan-descriptors"
	StageSeal            = "seal"
	// Replay (the cmd tools and internal/exec): the delivery pass opens
	// inside replay, and a traced run materializes the schedule after
	// it, re-planning it from the program's recorded source.
	StageArenaAcquire = "arena-acquire"
	StageReplay       = "replay"
	StageDeliver      = "deliver"
	StageMaterialize  = "materialize"
)

// StageNames returns every stage name, in pipeline order.
func StageNames() []string {
	return []string{
		StageCacheLookup, StageSingleflightWait, StageTier2Load, StageTier2Store,
		StagePlan, StagePrune, StagePlanScoring,
		StageCompile, StageLower, StageReferenceReplay, StagePlanDescriptors, StageSeal,
		StageArenaAcquire, StageReplay, StageDeliver, StageMaterialize,
	}
}
