package datasets

import (
	"math/rand"

	"repro/internal/rng"
	"repro/internal/ugraph"
)

// Query is one s-t evaluation pair.
type Query struct {
	S, T ugraph.NodeID
}

// NodeSample returns the subgraph induced by n uniformly sampled nodes
// (used by the Table 22 scalability sweep). Node IDs are re-indexed
// densely; edges keep their probabilities.
func NodeSample(g *ugraph.Graph, n int, seed int64) *ugraph.Graph {
	if n >= g.N() {
		return g.Clone()
	}
	r := rng.Split(seed, 7004)
	perm := r.Perm(g.N())
	remap := make(map[ugraph.NodeID]ugraph.NodeID, n)
	for i := 0; i < n; i++ {
		remap[ugraph.NodeID(perm[i])] = ugraph.NodeID(i)
	}
	sub := ugraph.New(n, g.Directed())
	for _, e := range g.Edges() {
		u, okU := remap[e.U]
		v, okV := remap[e.V]
		if okU && okV {
			sub.MustAddEdge(u, v, e.P)
		}
	}
	return sub
}

// Queries generates count s-t pairs following §8.1: a source chosen
// uniformly at random, and a target chosen among its dMin..dMax-hop
// neighbours (defaults 3..5), so the pair is neither trivially close nor
// disconnected.
func Queries(g *ugraph.Graph, count, dMin, dMax int, seed int64) []Query {
	if dMin <= 0 {
		dMin = 3
	}
	if dMax < dMin {
		dMax = dMin + 2
	}
	r := rng.Split(seed, 7001)
	var out []Query
	for attempts := 0; attempts < count*200 && len(out) < count; attempts++ {
		s := ugraph.NodeID(r.Intn(g.N()))
		t, ok := nodeAtDistance(g, s, dMin, dMax, r)
		if !ok {
			continue
		}
		out = append(out, Query{S: s, T: t})
	}
	return out
}

// QueriesAtDistance generates pairs at exactly d hops (Table 19).
func QueriesAtDistance(g *ugraph.Graph, count, d int, seed int64) []Query {
	r := rng.Split(seed, 7002)
	var out []Query
	for attempts := 0; attempts < count*300 && len(out) < count; attempts++ {
		s := ugraph.NodeID(r.Intn(g.N()))
		t, ok := nodeAtDistance(g, s, d, d, r)
		if !ok {
			continue
		}
		out = append(out, Query{S: s, T: t})
	}
	return out
}

// MultiQuery is one multiple-source-target evaluation instance.
type MultiQuery struct {
	Sources, Targets []ugraph.NodeID
}

// MultiQueries generates count instances per §8.1: draw a base s-t query,
// then pick q nodes within 5 hops of s as sources and q within 5 hops of t
// as targets, keeping the two sets disjoint.
func MultiQueries(g *ugraph.Graph, count, q int, seed int64) []MultiQuery {
	r := rng.Split(seed, 7003)
	var out []MultiQuery
	for attempts := 0; attempts < count*100 && len(out) < count; attempts++ {
		s := ugraph.NodeID(r.Intn(g.N()))
		t, ok := nodeAtDistance(g, s, 3, 5, r)
		if !ok {
			continue
		}
		sources := sampleNeighborhood(g, s, q, r, nil)
		if len(sources) < q {
			continue
		}
		taken := make(map[ugraph.NodeID]bool, len(sources))
		for _, v := range sources {
			taken[v] = true
		}
		targets := sampleNeighborhood(g, t, q, r, taken)
		if len(targets) < q {
			continue
		}
		out = append(out, MultiQuery{Sources: sources, Targets: targets})
	}
	return out
}

func nodeAtDistance(g *ugraph.Graph, s ugraph.NodeID, dMin, dMax int, r *rand.Rand) (ugraph.NodeID, bool) {
	dist := g.Freeze().HopDistances(s, dMax, false)
	var pool []ugraph.NodeID
	for v, d := range dist {
		if int(d) >= dMin && int(d) <= dMax {
			pool = append(pool, ugraph.NodeID(v))
		}
	}
	if len(pool) == 0 {
		return 0, false
	}
	return pool[r.Intn(len(pool))], true
}

// sampleNeighborhood picks q distinct nodes within 5 hops of anchor,
// excluding the given set.
func sampleNeighborhood(g *ugraph.Graph, anchor ugraph.NodeID, q int, r *rand.Rand, exclude map[ugraph.NodeID]bool) []ugraph.NodeID {
	dist := g.Freeze().HopDistances(anchor, 5, false)
	var pool []ugraph.NodeID
	for v, d := range dist {
		if d >= 0 && !exclude[ugraph.NodeID(v)] {
			pool = append(pool, ugraph.NodeID(v))
		}
	}
	if len(pool) < q {
		return nil
	}
	perm := r.Perm(len(pool))
	out := make([]ugraph.NodeID, q)
	for i := 0; i < q; i++ {
		out[i] = pool[perm[i]]
	}
	return out
}
