package torusx

import (
	"fmt"

	"torusx/internal/block"
	"torusx/internal/topology"
)

// CollectiveReport is the verified outcome of a collective operation.
type CollectiveReport struct {
	Dims    []int
	Nodes   int
	Measure Measure
}

// Broadcast replicates root's block to every node by bidirectional
// pipelined flooding, one dimension at a time. Works on any torus
// shape. The torus is translation-symmetric, so every root costs what
// root 0 costs: Broadcast reports the registry's "broadcast" program,
// built from root 0 and served from the program cache.
func Broadcast(t *Torus, root int) (*CollectiveReport, error) {
	if _, err := nodeID(root, t.Nodes()); err != nil {
		return nil, err
	}
	return replicationReport("broadcast", t)
}

// replicationReport reports alg's program on t, whose builder checked
// that every node ends with its blocks.
func replicationReport(alg string, t *Torus) (*CollectiveReport, error) {
	pg, err := replayProgram(alg, t)
	if err != nil {
		return nil, err
	}
	return &CollectiveReport{Dims: t.Dims(), Nodes: t.Nodes(), Measure: pg.Measure()}, nil
}

// Scatter sends root's N personalized blocks to their destinations
// through the Suh–Shin exchange schedule, as a sparse exchange. The
// torus must satisfy the exchange preconditions (dims multiples of
// four, non-increasing).
func Scatter(t *Torus, root int) (*CollectiveReport, error) {
	r, err := nodeID(root, t.Nodes())
	if err != nil {
		return nil, err
	}
	blocks := make([]block.Block, t.Nodes())
	for d := range blocks {
		blocks[d] = block.Block{Origin: r, Dest: topology.NodeID(d)}
	}
	return personalized(t, blocks)
}

// Gather collects one personalized block from every node at root
// through the Suh–Shin exchange schedule, as a sparse exchange.
func Gather(t *Torus, root int) (*CollectiveReport, error) {
	r, err := nodeID(root, t.Nodes())
	if err != nil {
		return nil, err
	}
	blocks := make([]block.Block, t.Nodes())
	for o := range blocks {
		blocks[o] = block.Block{Origin: topology.NodeID(o), Dest: r}
	}
	return personalized(t, blocks)
}

// personalized runs a one-to-all or all-to-one personalized collective
// through the shared sparse path.
func personalized(t *Torus, blocks []block.Block) (*CollectiveReport, error) {
	rep, err := sparseReport(t, t, blocks)
	if err != nil {
		return nil, err
	}
	return &CollectiveReport{Dims: rep.Dims, Nodes: rep.Nodes, Measure: rep.Measure}, nil
}

// AllGather replicates every node's block to all nodes with the ring
// algorithm per dimension. Works on any torus shape. It reports the
// registry's "allgather" program, served from the program cache.
func AllGather(t *Torus) (*CollectiveReport, error) {
	return replicationReport("allgather", t)
}

// AllReduce sums each node's length-N contribution vector across all
// nodes, leaving the full reduced vector everywhere, and returns the
// result vector (identical at every node) with the cost report: the
// ring reduce-scatter followed by an allgather of the reduced slots,
// whose costs are the cached "reducescatter" and "allgather" programs'.
// It checks contrib before it looks a program up. Each slot's value is
// its column sum: uint64 addition wraps mod 2^64, so the sum has the
// same bits whatever order the reduction adds in.
func AllReduce(t *Torus, contrib [][]uint64) ([]uint64, *CollectiveReport, error) {
	n := t.Nodes()
	if len(contrib) != n {
		return nil, nil, fmt.Errorf("collective: %d contribution vectors for %d nodes", len(contrib), n)
	}
	for i, v := range contrib {
		if len(v) != n {
			return nil, nil, fmt.Errorf("collective: node %d contributes %d slots, want %d", i, len(v), n)
		}
	}
	scatter, err := replayProgram("reducescatter", t)
	if err != nil {
		return nil, nil, err
	}
	rep, err := replicationReport("allgather", t)
	if err != nil {
		return nil, nil, err
	}
	vals := make([]uint64, n)
	for _, v := range contrib {
		for j, x := range v {
			vals[j] += x
		}
	}
	m := scatter.Measure()
	rep.Measure.Steps += m.Steps
	rep.Measure.Blocks += m.Blocks
	rep.Measure.Hops += m.Hops
	return vals, rep, nil
}
