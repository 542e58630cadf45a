package influence

import (
	"context"

	"math"
	"testing"

	"repro/internal/ugraph"
)

func TestSpreadExactSmall(t *testing.T) {
	// One source 0; targets {1, 2}. Edges 0→1 (0.5), 1→2 (0.4).
	// E[spread] = P(1 active) + P(2 active) = 0.5 + 0.2 = 0.7.
	g := ugraph.New(3, true)
	g.MustAddEdge(0, 1, 0.5)
	g.MustAddEdge(1, 2, 0.4)
	got := Spread(context.Background(), g.Freeze(), []ugraph.NodeID{0}, []ugraph.NodeID{1, 2}, Config{Z: 60000, Seed: 5})
	if math.Abs(got-0.7) > 0.02 {
		t.Fatalf("spread = %v, want 0.7", got)
	}
}

func TestSpreadSourceInTargets(t *testing.T) {
	g := ugraph.New(2, true)
	g.MustAddEdge(0, 1, 0.3)
	got := Spread(context.Background(), g.Freeze(), []ugraph.NodeID{0}, []ugraph.NodeID{0, 1}, Config{Z: 20000, Seed: 6})
	if math.Abs(got-1.3) > 0.02 {
		t.Fatalf("spread = %v, want 1.3 (source always active)", got)
	}
}

func TestIMAPicksSpreadMaximizingEdge(t *testing.T) {
	// Source 0; targets {3, 4}. Hub 2 reaches both targets strongly;
	// node 1 is a dead end. IMA must wire 0→2, not 0→1.
	g := ugraph.New(5, true)
	g.MustAddEdge(2, 3, 0.9)
	g.MustAddEdge(2, 4, 0.9)
	cands := []ugraph.Edge{
		{U: 0, V: 1, P: 0.8},
		{U: 0, V: 2, P: 0.8},
	}
	edges := IMA(context.Background(), g.Freeze(), []ugraph.NodeID{0}, []ugraph.NodeID{3, 4}, cands, 1, Config{Z: 3000, Seed: 7})
	if len(edges) != 1 || edges[0].V != 2 {
		t.Fatalf("IMA picked %v, want 0→2", edges)
	}
}

func TestESSSPPicksShortcut(t *testing.T) {
	// Long chain 0→1→2→3→4 (certain). Candidate 0→4 collapses the
	// distance from 4 to 1; candidate 0→1 is useless (already there).
	g := ugraph.New(5, true)
	for i := 0; i < 4; i++ {
		g.MustAddEdge(ugraph.NodeID(i), ugraph.NodeID(i+1), 1)
	}
	cands := []ugraph.Edge{
		{U: 0, V: 2, P: 1},
		{U: 0, V: 4, P: 1},
	}
	edges := ESSSP(context.Background(), g.Freeze(), []ugraph.NodeID{0}, []ugraph.NodeID{4}, cands, 1, Config{Z: 200, Seed: 8})
	if len(edges) != 1 || edges[0].V != 4 {
		t.Fatalf("ESSSP picked %v, want 0→4", edges)
	}
}

func TestGreedyRespectsBudget(t *testing.T) {
	g := ugraph.New(4, true)
	g.MustAddEdge(0, 1, 0.5)
	cands := []ugraph.Edge{
		{U: 0, V: 2, P: 0.5},
		{U: 0, V: 3, P: 0.5},
		{U: 1, V: 2, P: 0.5},
	}
	edges := IMA(context.Background(), g.Freeze(), []ugraph.NodeID{0}, []ugraph.NodeID{2, 3}, cands, 2, Config{Z: 500, Seed: 9})
	if len(edges) > 2 {
		t.Fatalf("budget exceeded: %v", edges)
	}
	edges = ESSSP(context.Background(), g.Freeze(), []ugraph.NodeID{0}, []ugraph.NodeID{2}, cands, 0, Config{Z: 100, Seed: 10})
	if len(edges) != 0 {
		t.Fatalf("k=0 returned %v", edges)
	}
}

func TestSpreadMonotoneInEdges(t *testing.T) {
	g := ugraph.New(4, true)
	g.MustAddEdge(0, 1, 0.4)
	g.MustAddEdge(1, 2, 0.4)
	before := Spread(context.Background(), g.Freeze(), []ugraph.NodeID{0}, []ugraph.NodeID{1, 2, 3}, Config{Z: 20000, Seed: 11})
	after := Spread(context.Background(), g.WithEdges([]ugraph.Edge{{U: 0, V: 3, P: 0.9}}).Freeze(), []ugraph.NodeID{0}, []ugraph.NodeID{1, 2, 3}, Config{Z: 20000, Seed: 11})
	if after < before+0.5 {
		t.Fatalf("spread %v → %v: expected ≥0.5 lift from 0→3 (0.9)", before, after)
	}
}
