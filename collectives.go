package torusx

import (
	"torusx/internal/block"
	"torusx/internal/collective"
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
// shape.
func Broadcast(t *Torus, root int) (*CollectiveReport, error) {
	r, err := nodeID(root, t.Nodes())
	if err != nil {
		return nil, err
	}
	res, err := collective.Broadcast(t, r)
	if err != nil {
		return nil, err
	}
	if err := collective.VerifyReplication(t, res.Have, []topology.NodeID{r}); err != nil {
		return nil, err
	}
	return &CollectiveReport{Dims: t.Dims(), Nodes: t.Nodes(), Measure: res.Measure}, nil
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
	res, err := sparseExchange(t, t, blocks)
	if err != nil {
		return nil, err
	}
	return &CollectiveReport{Dims: t.Dims(), Nodes: t.Nodes(), Measure: measureOf(res)}, nil
}

// AllGather replicates every node's block to all nodes with the ring
// algorithm per dimension. Works on any torus shape.
func AllGather(t *Torus) (*CollectiveReport, error) {
	res, err := collective.AllGather(t)
	if err != nil {
		return nil, err
	}
	origins := make([]topology.NodeID, t.Nodes())
	for i := range origins {
		origins[i] = topology.NodeID(i)
	}
	if err := collective.VerifyReplication(t, res.Have, origins); err != nil {
		return nil, err
	}
	return &CollectiveReport{Dims: t.Dims(), Nodes: t.Nodes(), Measure: res.Measure}, nil
}

// AllReduce sums each node's length-N contribution vector across all
// nodes, leaving the full reduced vector everywhere, and returns the
// result vector (identical at every node) with the cost report.
func AllReduce(t *Torus, contrib [][]uint64) ([]uint64, *CollectiveReport, error) {
	res, err := collective.AllReduce(t, contrib)
	if err != nil {
		return nil, nil, err
	}
	return res.Values[0], &CollectiveReport{Dims: t.Dims(), Nodes: t.Nodes(), Measure: res.Measure}, nil
}
