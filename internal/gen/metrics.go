package gen

import (
	"math/rand"

	"repro/internal/ugraph"
)

// AvgClustering returns the average local clustering coefficient over a
// node sample (all nodes when sample <= 0), treating the topology as
// undirected. Used to validate generated datasets against Table 8.
func AvgClustering(g *ugraph.Graph, sample int, r *rand.Rand) float64 {
	n := g.N()
	idx := nodeSample(n, sample, r)
	total, counted := 0.0, 0
	neighbors := make(map[ugraph.NodeID]bool)
	for _, u := range idx {
		clear(neighbors)
		for _, a := range g.Out(u) {
			neighbors[a.To] = true
		}
		for _, a := range g.In(u) {
			neighbors[a.To] = true
		}
		delete(neighbors, u)
		d := len(neighbors)
		if d < 2 {
			continue
		}
		links := 0
		for v := range neighbors {
			for _, a := range g.Out(v) {
				if a.To != u && neighbors[a.To] {
					links++
				}
			}
		}
		if !g.Directed() {
			// Each triangle edge was seen from both endpoints.
			links /= 2
		}
		total += 2 * float64(links) / float64(d*(d-1))
		counted++
	}
	if counted == 0 {
		return 0
	}
	return total / float64(counted)
}

// AvgShortestPath estimates the mean finite shortest-path hop length over a
// sample of BFS sources (all nodes when sample <= 0).
func AvgShortestPath(g *ugraph.Graph, sample int, r *rand.Rand) float64 {
	idx := nodeSample(g.N(), sample, r)
	total, pairs := 0.0, 0
	c := g.Freeze()
	for _, u := range idx {
		dist := c.HopDistances(u, -1, false)
		for v, d := range dist {
			if d > 0 && ugraph.NodeID(v) != u {
				total += float64(d)
				pairs++
			}
		}
	}
	if pairs == 0 {
		return 0
	}
	return total / float64(pairs)
}

// EdgeProbabilities returns all edge probabilities (for summary stats).
func EdgeProbabilities(g *ugraph.Graph) []float64 {
	out := make([]float64, g.M())
	for eid := range out {
		out[eid] = g.Prob(int32(eid))
	}
	return out
}

func nodeSample(n, sample int, r *rand.Rand) []ugraph.NodeID {
	if sample <= 0 || sample >= n {
		out := make([]ugraph.NodeID, n)
		for i := range out {
			out[i] = ugraph.NodeID(i)
		}
		return out
	}
	out := make([]ugraph.NodeID, sample)
	if r == nil {
		step := n / sample
		for i := range out {
			out[i] = ugraph.NodeID(i * step)
		}
		return out
	}
	perm := r.Perm(n)
	for i := range out {
		out[i] = ugraph.NodeID(perm[i])
	}
	return out
}
