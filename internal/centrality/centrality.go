// Package centrality implements the node-importance measures used by the
// centrality-based baseline of §3.3: probability-weighted degree centrality
// and betweenness centrality via Brandes' algorithm.
package centrality

import (
	"context"

	"repro/internal/ugraph"
)

// DegreeScores returns, for each node, the sum of edge probabilities over
// all incoming and outgoing edges ("aggregated edge probabilities" in the
// paper). For undirected graphs every incident edge counts once.
func DegreeScores(c *ugraph.CSR) []float64 {
	scores := make([]float64, c.N())
	for _, e := range c.Edges() {
		scores[e.U] += e.P
		scores[e.V] += e.P
	}
	return scores
}

// BetweennessScores returns the (unweighted, hop-distance) betweenness
// centrality of every node using Brandes' algorithm: the number of
// shortest paths passing through each node, normalized per source by the
// path counts. Runs in O(n·m). The per-source loop polls ctx (nil allowed)
// so a cancelled query does not sit through the full computation; the
// partial scores returned on cancellation cover only the sources processed
// so far — callers observing ctx.Err() discard them.
func BetweennessScores(ctx context.Context, c *ugraph.CSR) []float64 {
	n := c.N()
	cb := make([]float64, n)
	dist := make([]int32, n)
	sigma := make([]float64, n)
	delta := make([]float64, n)
	preds := make([][]ugraph.NodeID, n)
	stack := make([]ugraph.NodeID, 0, n)
	queue := make([]ugraph.NodeID, 0, n)
	for s := 0; s < n; s++ {
		if s&63 == 0 && ctx != nil && ctx.Err() != nil {
			break
		}
		stack = stack[:0]
		queue = queue[:0]
		for i := 0; i < n; i++ {
			dist[i] = -1
			sigma[i] = 0
			delta[i] = 0
			preds[i] = preds[i][:0]
		}
		src := ugraph.NodeID(s)
		dist[src] = 0
		sigma[src] = 1
		queue = append(queue, src)
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			stack = append(stack, v)
			for _, arcs := range [2][]ugraph.Arc{c.Out(v), c.OutOverlay(v)} {
				for _, a := range arcs {
					w := a.To
					if dist[w] < 0 {
						dist[w] = dist[v] + 1
						queue = append(queue, w)
					}
					if dist[w] == dist[v]+1 {
						sigma[w] += sigma[v]
						preds[w] = append(preds[w], v)
					}
				}
			}
		}
		for i := len(stack) - 1; i >= 0; i-- {
			w := stack[i]
			for _, v := range preds[w] {
				delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
			}
			if w != src {
				cb[w] += delta[w]
			}
		}
	}
	if !c.Directed() {
		// Each undirected shortest path was counted from both endpoints.
		for i := range cb {
			cb[i] /= 2
		}
	}
	return cb
}
