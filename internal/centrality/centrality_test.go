package centrality

import (
	"context"

	"math"
	"testing"

	"repro/internal/ugraph"
)

func TestDegreeScores(t *testing.T) {
	g := ugraph.New(3, true)
	g.MustAddEdge(0, 1, 0.5)
	g.MustAddEdge(1, 2, 0.3)
	g.MustAddEdge(0, 2, 0.2)
	got := DegreeScores(g.Freeze())
	want := []float64{0.7, 0.8, 0.5}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("score[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestDegreeScoresUndirected(t *testing.T) {
	g := ugraph.New(2, false)
	g.MustAddEdge(0, 1, 0.4)
	got := DegreeScores(g.Freeze())
	if got[0] != 0.4 || got[1] != 0.4 {
		t.Errorf("scores = %v, want [0.4 0.4]", got)
	}
}

func TestBetweennessPathGraph(t *testing.T) {
	// Undirected path 0-1-2-3-4: betweenness = 0,3,4,3,0.
	g := ugraph.New(5, false)
	for i := 0; i < 4; i++ {
		g.MustAddEdge(ugraph.NodeID(i), ugraph.NodeID(i+1), 0.5)
	}
	got := BetweennessScores(context.Background(), g.Freeze())
	want := []float64{0, 3, 4, 3, 0}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("cb[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestBetweennessStarGraph(t *testing.T) {
	// Undirected star with center 0 and 4 leaves: center betweenness is
	// C(4,2) = 6, leaves 0.
	g := ugraph.New(5, false)
	for leaf := 1; leaf < 5; leaf++ {
		g.MustAddEdge(0, ugraph.NodeID(leaf), 0.9)
	}
	got := BetweennessScores(context.Background(), g.Freeze())
	if math.Abs(got[0]-6) > 1e-9 {
		t.Errorf("center betweenness = %v, want 6", got[0])
	}
	for leaf := 1; leaf < 5; leaf++ {
		if got[leaf] != 0 {
			t.Errorf("leaf %d betweenness = %v, want 0", leaf, got[leaf])
		}
	}
}

func TestBetweennessDirectedChain(t *testing.T) {
	// Directed chain 0→1→2: node 1 lies on the single 0→2 shortest path.
	g := ugraph.New(3, true)
	g.MustAddEdge(0, 1, 0.5)
	g.MustAddEdge(1, 2, 0.5)
	got := BetweennessScores(context.Background(), g.Freeze())
	if math.Abs(got[1]-1) > 1e-9 {
		t.Errorf("cb[1] = %v, want 1", got[1])
	}
	if got[0] != 0 || got[2] != 0 {
		t.Errorf("endpoints = %v, want 0", got)
	}
}

func TestBetweennessSplitPaths(t *testing.T) {
	// Two parallel 2-hop routes 0→{1,2}→3: each middle node carries half
	// of the single source-sink pair.
	g := ugraph.New(4, true)
	g.MustAddEdge(0, 1, 0.5)
	g.MustAddEdge(0, 2, 0.5)
	g.MustAddEdge(1, 3, 0.5)
	g.MustAddEdge(2, 3, 0.5)
	got := BetweennessScores(context.Background(), g.Freeze())
	if math.Abs(got[1]-0.5) > 1e-9 || math.Abs(got[2]-0.5) > 1e-9 {
		t.Errorf("middles = %v, want 0.5 each", got)
	}
}

func TestBetweennessCancelledContextStopsEarly(t *testing.T) {
	g := ugraph.New(4, false)
	g.MustAddEdge(0, 1, 0.5)
	g.MustAddEdge(1, 2, 0.5)
	g.MustAddEdge(2, 3, 0.5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// The per-source sweep aborts on the first poll: the scores are
	// partial (all zero here) and callers observing ctx.Err() discard
	// them. The contract under test is prompt, panic-free return.
	got := BetweennessScores(ctx, g.Freeze())
	if len(got) != 4 {
		t.Fatalf("cancelled BetweennessScores returned malformed slice: %v", got)
	}
}
