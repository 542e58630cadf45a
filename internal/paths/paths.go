// Package paths implements the path machinery of §4-5 of the paper: most
// reliable paths via Dijkstra over −log p weights, top-l most reliable
// simple path enumeration (used in place of Eppstein's algorithm; exact,
// loopless, Yen-style deviation search), and the layered-graph polynomial
// algorithm for the restricted "improve the most reliable path" problem
// (Algorithm 3, Theorem 3).
package paths

import (
	"context"
	"math"

	"repro/internal/pq"
	"repro/internal/ugraph"
)

// Path is a simple s-t path in an uncertain graph.
type Path struct {
	Nodes []ugraph.NodeID
	Edges []int32 // edge IDs; len(Edges) == len(Nodes)-1
	Prob  float64 // product of edge probabilities
}

// Weight returns the path's additive weight Σ −log p(e) = −log Prob; lower
// is more reliable.
func (p Path) Weight() float64 {
	if p.Prob <= 0 {
		return math.Inf(1)
	}
	return -math.Log(p.Prob)
}

// MostReliable returns the most reliable path from s to t (Equation 5), or
// ok=false if t is unreachable through positive-probability edges.
func MostReliable(c *ugraph.CSR, s, t ugraph.NodeID) (Path, bool) {
	return dijkstra(c, s, t, nil, nil)
}

// dijkstra runs a most-reliable-path search from s to t, skipping banned
// edges and banned nodes (nil means none; s itself is never banned). The
// relaxation loop walks the snapshot's rows, overlay arcs included: the
// Yen-style top-l enumeration re-runs dijkstra once per deviation, all
// against the same frozen topology.
func dijkstra(c *ugraph.CSR, s, t ugraph.NodeID, bannedEdge map[int32]bool, bannedNode []bool) (Path, bool) {
	n := c.N()
	dist := make([]float64, n)
	parent := make([]int32, n)     // predecessor node
	parentEdge := make([]int32, n) // edge used to arrive
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = -1
		parentEdge[i] = -1
	}
	dist[s] = 0
	var h pq.Heap[ugraph.NodeID]
	h.Push(0, s)
	for h.Len() > 0 {
		d, u := h.Pop()
		if done[u] || d > dist[u] {
			continue
		}
		done[u] = true
		if u == t {
			break
		}
		for _, arcs := range [2][]ugraph.Arc{c.Out(u), c.OutOverlay(u)} {
			for _, a := range arcs {
				if done[a.To] {
					continue
				}
				if bannedEdge != nil && bannedEdge[a.EID] {
					continue
				}
				if bannedNode != nil && bannedNode[a.To] {
					continue
				}
				p := c.Prob(a.EID)
				if p <= 0 {
					continue
				}
				nd := d - math.Log(p)
				if nd < dist[a.To] {
					dist[a.To] = nd
					parent[a.To] = int32(u)
					parentEdge[a.To] = a.EID
					h.Push(nd, a.To)
				}
			}
		}
	}
	if math.IsInf(dist[t], 1) {
		return Path{}, false
	}
	return reconstruct(c, s, t, parent, parentEdge), true
}

func reconstruct(c *ugraph.CSR, s, t ugraph.NodeID, parent, parentEdge []int32) Path {
	var nodes []ugraph.NodeID
	var edges []int32
	for v := t; ; {
		nodes = append(nodes, v)
		if v == s {
			break
		}
		edges = append(edges, parentEdge[v])
		v = ugraph.NodeID(parent[v])
	}
	// Reverse in place.
	for i, j := 0, len(nodes)-1; i < j; i, j = i+1, j-1 {
		nodes[i], nodes[j] = nodes[j], nodes[i]
	}
	for i, j := 0, len(edges)-1; i < j; i, j = i+1, j-1 {
		edges[i], edges[j] = edges[j], edges[i]
	}
	prob := 1.0
	for _, eid := range edges {
		prob *= c.Prob(eid)
	}
	return Path{Nodes: nodes, Edges: edges, Prob: prob}
}

// TopL returns up to l most reliable simple paths from s to t in decreasing
// probability order (ties broken arbitrarily), the path set P of §5.1.2.
// It uses Yen's deviation algorithm with most-reliable-path Dijkstra as the
// subroutine; the output is exact. Extraction polls ctx between paths: a
// cancelled context stops the enumeration and returns the (still exact,
// still sorted) prefix found so far.
func TopL(ctx context.Context, c *ugraph.CSR, s, t ugraph.NodeID, l int) []Path {
	if l <= 0 {
		return nil
	}
	first, ok := MostReliable(c, s, t)
	if !ok {
		return nil
	}
	result := []Path{first}
	seen := map[string]bool{pathKey(first): true}
	var candidates pq.Heap[Path]
	bannedNode := make([]bool, c.N())
	for len(result) < l {
		if ctx != nil && ctx.Err() != nil {
			break
		}
		prev := result[len(result)-1]
		for i := 0; i+1 < len(prev.Nodes); i++ {
			spur := prev.Nodes[i]
			rootNodes := prev.Nodes[:i+1]
			rootEdges := prev.Edges[:i]
			bannedEdge := make(map[int32]bool)
			for _, p := range result {
				if pathHasPrefix(p, rootNodes) {
					bannedEdge[p.Edges[i]] = true
				}
			}
			for _, v := range rootNodes[:len(rootNodes)-1] {
				bannedNode[v] = true
			}
			spurPath, ok := dijkstra(c, spur, t, bannedEdge, bannedNode)
			for _, v := range rootNodes[:len(rootNodes)-1] {
				bannedNode[v] = false
			}
			if !ok {
				continue
			}
			total := joinPaths(c, rootNodes, rootEdges, spurPath)
			key := pathKey(total)
			if seen[key] {
				continue
			}
			seen[key] = true
			candidates.Push(-math.Log(maxProb(total.Prob)), total)
		}
		if candidates.Len() == 0 {
			break
		}
		_, best := candidates.Pop()
		result = append(result, best)
	}
	return result
}

func maxProb(p float64) float64 {
	if p <= 0 {
		return math.SmallestNonzeroFloat64
	}
	return p
}

func pathHasPrefix(p Path, prefix []ugraph.NodeID) bool {
	if len(p.Nodes) < len(prefix) {
		return false
	}
	for i, v := range prefix {
		if p.Nodes[i] != v {
			return false
		}
	}
	return true
}

func pathKey(p Path) string {
	buf := make([]byte, 0, len(p.Nodes)*4)
	for _, v := range p.Nodes {
		buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return string(buf)
}

func joinPaths(c *ugraph.CSR, rootNodes []ugraph.NodeID, rootEdges []int32, spur Path) Path {
	nodes := make([]ugraph.NodeID, 0, len(rootNodes)+len(spur.Nodes)-1)
	nodes = append(nodes, rootNodes...)
	nodes = append(nodes, spur.Nodes[1:]...)
	edges := make([]int32, 0, len(rootEdges)+len(spur.Edges))
	edges = append(edges, rootEdges...)
	edges = append(edges, spur.Edges...)
	prob := 1.0
	for _, eid := range edges {
		prob *= c.Prob(eid)
	}
	return Path{Nodes: nodes, Edges: edges, Prob: prob}
}
