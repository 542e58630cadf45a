package influence

import (
	"context"

	"testing"

	"repro/internal/ugraph"
)

func TestIMABudgetExceedsCandidates(t *testing.T) {
	g := ugraph.New(3, true)
	g.MustAddEdge(1, 2, 0.9)
	cands := []ugraph.Edge{{U: 0, V: 1, P: 0.8}}
	edges := IMA(context.Background(), g.Freeze(), []ugraph.NodeID{0}, []ugraph.NodeID{2}, cands, 10, Config{Z: 300, Seed: 3})
	if len(edges) != 1 {
		t.Fatalf("edges = %v, want the single candidate", edges)
	}
}

func TestESSSPEmptyCandidates(t *testing.T) {
	g := ugraph.New(3, true)
	g.MustAddEdge(0, 1, 0.9)
	edges := ESSSP(context.Background(), g.Freeze(), []ugraph.NodeID{0}, []ugraph.NodeID{1}, nil, 5, Config{Z: 100, Seed: 4})
	if len(edges) != 0 {
		t.Fatalf("edges = %v, want none", edges)
	}
}

func TestIMASequentialBridge(t *testing.T) {
	// IMA's greedy must assemble a 2-edge bridge when the first edge
	// already improves spread: 0→1 (helps: 1 is a target) then 1→2.
	g := ugraph.New(3, true)
	cands := []ugraph.Edge{
		{U: 0, V: 1, P: 0.9},
		{U: 1, V: 2, P: 0.9},
	}
	edges := IMA(context.Background(), g.Freeze(), []ugraph.NodeID{0}, []ugraph.NodeID{1, 2}, cands, 2, Config{Z: 2000, Seed: 5})
	if len(edges) != 2 {
		t.Fatalf("edges = %v, want both bridge edges", edges)
	}
	if edges[0].V != 1 {
		t.Fatalf("greedy order wrong: %v (0→1 has positive gain alone, 1→2 has none)", edges)
	}
}

func TestSpreadDefaults(t *testing.T) {
	g := ugraph.New(2, true)
	g.MustAddEdge(0, 1, 0.5)
	// Zero-value config must apply defaults rather than dividing by zero.
	got := Spread(context.Background(), g.Freeze(), []ugraph.NodeID{0}, []ugraph.NodeID{1}, Config{})
	if got < 0 || got > 1 {
		t.Fatalf("spread = %v", got)
	}
}

// TestSpreadMatchesSumOfReliabilities: for a single source, the spread
// equals Σ_t R(s, t) — the bridge between influence maximization and
// average reliability (§8.4.2, Equations 13-14).
func TestSpreadMatchesSumOfReliabilities(t *testing.T) {
	g := ugraph.New(4, true)
	g.MustAddEdge(0, 1, 0.6)
	g.MustAddEdge(1, 2, 0.5)
	g.MustAddEdge(0, 3, 0.3)
	targets := []ugraph.NodeID{1, 2, 3}
	spread := Spread(context.Background(), g.Freeze(), []ugraph.NodeID{0}, targets, Config{Z: 60000, Seed: 6})
	want := 0.0
	for _, tt := range targets {
		r, err := g.ExactReliability(0, tt)
		if err != nil {
			t.Fatal(err)
		}
		want += r
	}
	if diff := spread - want; diff > 0.03 || diff < -0.03 {
		t.Fatalf("spread %v, Σ reliabilities %v", spread, want)
	}
}
