package paths

import (
	"context"

	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/rng"
	"repro/internal/ugraph"
)

// allSimplePaths enumerates every simple s-t path by DFS (test oracle).
func allSimplePaths(g *ugraph.Graph, s, t ugraph.NodeID) []Path {
	var out []Path
	onPath := make([]bool, g.N())
	var nodes []ugraph.NodeID
	var edges []int32
	var dfs func(u ugraph.NodeID, prob float64)
	dfs = func(u ugraph.NodeID, prob float64) {
		if u == t {
			p := Path{Nodes: append([]ugraph.NodeID(nil), nodes...), Edges: append([]int32(nil), edges...), Prob: prob}
			out = append(out, p)
			return
		}
		for _, a := range g.Out(u) {
			if onPath[a.To] || g.Prob(a.EID) <= 0 {
				continue
			}
			onPath[a.To] = true
			nodes = append(nodes, a.To)
			edges = append(edges, a.EID)
			dfs(a.To, prob*g.Prob(a.EID))
			onPath[a.To] = false
			nodes = nodes[:len(nodes)-1]
			edges = edges[:len(edges)-1]
		}
	}
	onPath[s] = true
	nodes = append(nodes, s)
	dfs(s, 1)
	return out
}

func randomGraph(r *rand.Rand, n, m int, directed bool) *ugraph.Graph {
	g := ugraph.New(n, directed)
	for attempts := 0; attempts < 4*m && g.M() < m; attempts++ {
		u := ugraph.NodeID(r.Intn(n))
		v := ugraph.NodeID(r.Intn(n))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		g.MustAddEdge(u, v, 0.1+0.85*r.Float64())
	}
	return g
}

func TestMostReliableSimple(t *testing.T) {
	// 0→1→3 has prob 0.9*0.9=0.81; 0→2→3 has 0.99*0.5=0.495;
	// direct 0→3 has 0.7.
	g := ugraph.New(4, true)
	g.MustAddEdge(0, 1, 0.9)
	g.MustAddEdge(1, 3, 0.9)
	g.MustAddEdge(0, 2, 0.99)
	g.MustAddEdge(2, 3, 0.5)
	g.MustAddEdge(0, 3, 0.7)
	p, ok := MostReliable(g.Freeze(), 0, 3)
	if !ok {
		t.Fatal("no path found")
	}
	if math.Abs(p.Prob-0.81) > 1e-12 {
		t.Fatalf("Prob = %v, want 0.81", p.Prob)
	}
	want := []ugraph.NodeID{0, 1, 3}
	if len(p.Nodes) != 3 || p.Nodes[0] != want[0] || p.Nodes[1] != want[1] || p.Nodes[2] != want[2] {
		t.Fatalf("Nodes = %v, want %v", p.Nodes, want)
	}
	if len(p.Edges) != 2 {
		t.Fatalf("Edges = %v", p.Edges)
	}
	if w := p.Weight(); math.Abs(w-(-math.Log(0.81))) > 1e-12 {
		t.Fatalf("Weight = %v", w)
	}
}

func TestMostReliableUnreachable(t *testing.T) {
	g := ugraph.New(3, true)
	g.MustAddEdge(0, 1, 0.5)
	if _, ok := MostReliable(g.Freeze(), 0, 2); ok {
		t.Fatal("found path to unreachable node")
	}
	// Zero-probability edges do not count as connectivity.
	g.MustAddEdge(1, 2, 0)
	if _, ok := MostReliable(g.Freeze(), 0, 2); ok {
		t.Fatal("traversed zero-probability edge")
	}
}

func TestTopLMatchesBruteForce(t *testing.T) {
	r := rng.New(42)
	for trial := 0; trial < 25; trial++ {
		g := randomGraph(r, 7, 14, trial%2 == 0)
		s, tt := ugraph.NodeID(0), ugraph.NodeID(6)
		all := allSimplePaths(g, s, tt)
		sort.Slice(all, func(i, j int) bool { return all[i].Prob > all[j].Prob })
		for _, l := range []int{1, 3, 10} {
			got := TopL(context.Background(), g.Freeze(), s, tt, l)
			wantLen := l
			if len(all) < l {
				wantLen = len(all)
			}
			if len(got) != wantLen {
				t.Fatalf("trial %d l=%d: got %d paths, want %d", trial, l, len(got), wantLen)
			}
			for i := range got {
				if math.Abs(got[i].Prob-all[i].Prob) > 1e-9 {
					t.Fatalf("trial %d l=%d rank %d: prob %v, brute force %v", trial, l, i, got[i].Prob, all[i].Prob)
				}
			}
		}
	}
}

func TestTopLPathsAreSimpleAndOrdered(t *testing.T) {
	r := rng.New(55)
	g := randomGraph(r, 12, 30, false)
	got := TopL(context.Background(), g.Freeze(), 0, 11, 20)
	prev := math.Inf(1)
	for _, p := range got {
		if p.Prob > prev+1e-12 {
			t.Fatalf("paths out of order: %v after %v", p.Prob, prev)
		}
		prev = p.Prob
		seen := map[ugraph.NodeID]bool{}
		for _, v := range p.Nodes {
			if seen[v] {
				t.Fatalf("non-simple path %v", p.Nodes)
			}
			seen[v] = true
		}
		// Edges must connect consecutive nodes and multiply to Prob.
		prob := 1.0
		for i, eid := range p.Edges {
			e := g.Endpoints(eid)
			u, v := p.Nodes[i], p.Nodes[i+1]
			if !(e.U == u && e.V == v) && !(!g.Directed() && e.U == v && e.V == u) {
				t.Fatalf("edge %d does not connect %d-%d: %+v", eid, u, v, e)
			}
			prob *= e.P
		}
		if math.Abs(prob-p.Prob) > 1e-12 {
			t.Fatalf("Prob mismatch: %v vs %v", prob, p.Prob)
		}
	}
}

func TestTopLEdgeCases(t *testing.T) {
	g := ugraph.New(3, true)
	g.MustAddEdge(0, 1, 0.5)
	if got := TopL(context.Background(), g.Freeze(), 0, 2, 5); got != nil {
		t.Fatalf("unreachable target returned %v", got)
	}
	if got := TopL(context.Background(), g.Freeze(), 0, 1, 0); got != nil {
		t.Fatalf("l=0 returned %v", got)
	}
	got := TopL(context.Background(), g.Freeze(), 0, 1, 5)
	if len(got) != 1 || got[0].Prob != 0.5 {
		t.Fatalf("single path graph: %v", got)
	}
}

// TestMRPFigure3 checks Algorithm 3 on the Figure 3 example: undirected
// edges A-B and A-t with probability α; candidates sA, sB, Bt with
// probability ζ.
func TestMRPFigure3(t *testing.T) {
	const s, a, b, tt = 0, 1, 2, 3
	build := func(alpha float64) *ugraph.Graph {
		g := ugraph.New(4, false)
		g.MustAddEdge(a, b, alpha)
		g.MustAddEdge(a, tt, alpha)
		return g
	}
	candidates := func(zeta float64) []ugraph.Edge {
		return []ugraph.Edge{{U: s, V: a, P: zeta}, {U: s, V: b, P: zeta}, {U: b, V: tt, P: zeta}}
	}
	// k=1, any (α, ζ): best single red edge is sA giving path prob α·ζ.
	res := ImproveMostReliablePath(context.Background(), build(0.5).Freeze(), candidates(0.7), s, tt, 1)
	if res.BaseProb != 0 {
		t.Fatalf("BaseProb = %v, want 0", res.BaseProb)
	}
	if math.Abs(res.Prob-0.5*0.7) > 1e-12 {
		t.Fatalf("k=1 Prob = %v, want 0.35", res.Prob)
	}
	if len(res.Chosen) != 1 || res.Chosen[0].U != s || res.Chosen[0].V != a {
		t.Fatalf("k=1 Chosen = %v, want {sA}", res.Chosen)
	}
	// k=2, α=0.5, ζ=0.7: path s-B-t with two red edges has prob 0.49 >
	// 0.35, so MRP picks {sB, Bt}.
	res = ImproveMostReliablePath(context.Background(), build(0.5).Freeze(), candidates(0.7), s, tt, 2)
	if math.Abs(res.Prob-0.49) > 1e-12 {
		t.Fatalf("k=2 Prob = %v, want 0.49", res.Prob)
	}
	if len(res.Chosen) != 2 {
		t.Fatalf("k=2 Chosen = %v", res.Chosen)
	}
	// k=2, α=0.9, ζ=0.5: single red path sA·At = 0.45 beats ζ² = 0.25.
	res = ImproveMostReliablePath(context.Background(), build(0.9).Freeze(), candidates(0.5), s, tt, 2)
	if math.Abs(res.Prob-0.45) > 1e-12 {
		t.Fatalf("α=0.9 Prob = %v, want 0.45", res.Prob)
	}
	if len(res.Chosen) != 1 {
		t.Fatalf("α=0.9 Chosen = %v, want one edge", res.Chosen)
	}
}

func TestMRPNoImprovementNeeded(t *testing.T) {
	g := ugraph.New(3, true)
	g.MustAddEdge(0, 2, 0.95)
	g.MustAddEdge(0, 1, 0.5)
	res := ImproveMostReliablePath(context.Background(), g.Freeze(), []ugraph.Edge{{U: 1, V: 2, P: 0.5}}, 0, 2, 3)
	if len(res.Chosen) != 0 {
		t.Fatalf("Chosen = %v, want none (direct edge already best)", res.Chosen)
	}
	if math.Abs(res.Prob-0.95) > 1e-12 || math.Abs(res.BaseProb-0.95) > 1e-12 {
		t.Fatalf("Prob/BaseProb = %v/%v, want 0.95", res.Prob, res.BaseProb)
	}
}

func TestMRPUnreachableEvenWithCandidates(t *testing.T) {
	g := ugraph.New(4, true)
	g.MustAddEdge(0, 1, 0.5)
	res := ImproveMostReliablePath(context.Background(), g.Freeze(), []ugraph.Edge{{U: 1, V: 2, P: 0.5}}, 0, 3, 2)
	if res.Prob != 0 || len(res.Chosen) != 0 {
		t.Fatalf("unexpected result %+v", res)
	}
}

func TestMRPRespectsBudget(t *testing.T) {
	// Chain s→a→b→t entirely of candidates: needs 3 red edges. With k=2
	// there is no path at all.
	g := ugraph.New(4, true)
	cand := []ugraph.Edge{{U: 0, V: 1, P: 0.9}, {U: 1, V: 2, P: 0.9}, {U: 2, V: 3, P: 0.9}}
	res := ImproveMostReliablePath(context.Background(), g.Freeze(), cand, 0, 3, 2)
	if res.Prob != 0 {
		t.Fatalf("budget 2 found prob %v over a 3-red-edge chain", res.Prob)
	}
	res = ImproveMostReliablePath(context.Background(), g.Freeze(), cand, 0, 3, 3)
	if math.Abs(res.Prob-0.729) > 1e-12 || len(res.Chosen) != 3 {
		t.Fatalf("budget 3: %+v", res)
	}
}

func TestMRPDirectedCandidateOrientation(t *testing.T) {
	g := ugraph.New(3, true)
	g.MustAddEdge(0, 1, 0.9)
	// Candidate points the wrong way in a directed graph: unusable.
	res := ImproveMostReliablePath(context.Background(), g.Freeze(), []ugraph.Edge{{U: 2, V: 1, P: 0.9}}, 0, 2, 1)
	if res.Prob != 0 {
		t.Fatalf("wrong-direction candidate used: %+v", res)
	}
	// Same candidate in an undirected graph is usable.
	ug := ugraph.New(3, false)
	ug.MustAddEdge(0, 1, 0.9)
	res = ImproveMostReliablePath(context.Background(), ug.Freeze(), []ugraph.Edge{{U: 2, V: 1, P: 0.9}}, 0, 2, 1)
	if math.Abs(res.Prob-0.81) > 1e-12 {
		t.Fatalf("undirected candidate: %+v", res)
	}
}

// TestMRPMatchesBruteForce cross-validates Algorithm 3 against exhaustive
// subset enumeration on random instances.
func TestMRPMatchesBruteForce(t *testing.T) {
	r := rng.New(77)
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(r, 6, 8, trial%2 == 0)
		s, tt := ugraph.NodeID(0), ugraph.NodeID(5)
		var cands []ugraph.Edge
		for attempts := 0; attempts < 30 && len(cands) < 5; attempts++ {
			u := ugraph.NodeID(r.Intn(6))
			v := ugraph.NodeID(r.Intn(6))
			if u == v || g.HasEdge(u, v) {
				continue
			}
			dup := false
			for _, c := range cands {
				if (c.U == u && c.V == v) || (!g.Directed() && c.U == v && c.V == u) {
					dup = true
					break
				}
			}
			if !dup {
				cands = append(cands, ugraph.Edge{U: u, V: v, P: 0.3 + 0.6*r.Float64()})
			}
		}
		const k = 2
		best := 0.0
		for mask := 0; mask < 1<<len(cands); mask++ {
			chosen := []ugraph.Edge{}
			for i := range cands {
				if mask&(1<<i) != 0 {
					chosen = append(chosen, cands[i])
				}
			}
			if len(chosen) > k {
				continue
			}
			if p, ok := MostReliable(g.WithEdges(chosen).Freeze(), s, tt); ok && p.Prob > best {
				best = p.Prob
			}
		}
		res := ImproveMostReliablePath(context.Background(), g.Freeze(), cands, s, tt, k)
		if math.Abs(res.Prob-best) > 1e-9 {
			t.Fatalf("trial %d: layered %v, brute force %v", trial, res.Prob, best)
		}
	}
}
