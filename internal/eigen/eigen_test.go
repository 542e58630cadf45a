package eigen

import (
	"context"

	"math"
	"testing"

	"repro/internal/ugraph"
)

func TestLeadingTwoNodeSymmetric(t *testing.T) {
	// A = [[0, 0.5], [0.5, 0]] has λ = 0.5 with eigenvector (1,1)/√2.
	g := ugraph.New(2, false)
	g.MustAddEdge(0, 1, 0.5)
	lambda, left, right := Leading(context.Background(), g.Freeze(), 0)
	if math.Abs(lambda-0.5) > 1e-9 {
		t.Fatalf("λ = %v, want 0.5", lambda)
	}
	inv := 1 / math.Sqrt(2)
	for i := 0; i < 2; i++ {
		if math.Abs(right[i]-inv) > 1e-6 || math.Abs(left[i]-inv) > 1e-6 {
			t.Fatalf("vectors = %v / %v, want (≈0.707, ≈0.707)", left, right)
		}
	}
}

func TestLeadingDirectedCycle(t *testing.T) {
	// Directed 3-cycle with probability p: spectral radius p, uniform
	// eigenvectors.
	const p = 0.4
	g := ugraph.New(3, true)
	g.MustAddEdge(0, 1, p)
	g.MustAddEdge(1, 2, p)
	g.MustAddEdge(2, 0, p)
	lambda, left, right := Leading(context.Background(), g.Freeze(), 0)
	if math.Abs(lambda-p) > 1e-6 {
		t.Fatalf("λ = %v, want %v", lambda, p)
	}
	inv := 1 / math.Sqrt(3)
	for i := 0; i < 3; i++ {
		if math.Abs(right[i]-inv) > 1e-6 || math.Abs(left[i]-inv) > 1e-6 {
			t.Fatalf("vectors = %v / %v", left, right)
		}
	}
}

func TestLeadingEmptyGraph(t *testing.T) {
	g := ugraph.New(4, true)
	lambda, _, right := Leading(context.Background(), g.Freeze(), 0)
	if lambda != 0 {
		t.Fatalf("λ = %v for empty graph, want 0", lambda)
	}
	for _, v := range right {
		if v != 0 {
			t.Fatalf("eigenvector = %v, want zeros", right)
		}
	}
}

func TestLeadingDominantComponent(t *testing.T) {
	// A dense triangle (high λ) plus an isolated weak edge: the
	// eigenvector must concentrate on the triangle.
	g := ugraph.New(5, false)
	g.MustAddEdge(0, 1, 0.9)
	g.MustAddEdge(1, 2, 0.9)
	g.MustAddEdge(0, 2, 0.9)
	g.MustAddEdge(3, 4, 0.1)
	lambda, _, right := Leading(context.Background(), g.Freeze(), 0)
	if math.Abs(lambda-1.8) > 1e-6 { // triangle: λ = 2·0.9
		t.Fatalf("λ = %v, want 1.8", lambda)
	}
	if right[3] > 1e-6 || right[4] > 1e-6 {
		t.Fatalf("mass on weak component: %v", right)
	}
}

func TestTopEdgesAvoidsExistingAndSelf(t *testing.T) {
	g := ugraph.New(4, false)
	g.MustAddEdge(0, 1, 0.9)
	g.MustAddEdge(1, 2, 0.9)
	g.MustAddEdge(0, 2, 0.9)
	edges := TopEdges(context.Background(), g.Freeze(), 3)
	if len(edges) == 0 {
		t.Fatal("no edges proposed")
	}
	for _, e := range edges {
		if e.U == e.V {
			t.Fatalf("self loop proposed: %+v", e)
		}
		if g.HasEdge(e.U, e.V) {
			t.Fatalf("existing edge proposed: %+v", e)
		}
	}
	// Node 3 is isolated; the top proposals must connect the hub triangle
	// to it (the only missing pairs involve node 3).
	for _, e := range edges {
		if e.U != 3 && e.V != 3 {
			t.Fatalf("unexpected proposal %+v", e)
		}
	}
}

func TestTopEdgesScoresDescending(t *testing.T) {
	g := ugraph.New(6, true)
	g.MustAddEdge(0, 1, 0.8)
	g.MustAddEdge(1, 2, 0.8)
	g.MustAddEdge(2, 0, 0.8)
	g.MustAddEdge(3, 4, 0.2)
	edges := TopEdges(context.Background(), g.Freeze(), 4)
	for i := 1; i < len(edges); i++ {
		if edges[i].Score > edges[i-1].Score+1e-12 {
			t.Fatalf("scores out of order: %v", edges)
		}
	}
}

func TestTopEdgesZeroBudget(t *testing.T) {
	g := ugraph.New(3, false)
	g.MustAddEdge(0, 1, 0.5)
	if got := TopEdges(context.Background(), g.Freeze(), 0); got != nil {
		t.Fatalf("k=0 returned %v", got)
	}
}

func TestLeadingCancelledContextStopsEarly(t *testing.T) {
	g := ugraph.New(3, false)
	g.MustAddEdge(0, 1, 0.5)
	g.MustAddEdge(1, 2, 0.5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// The iteration stops at the initial vector: still normalized, not
	// converged; callers observing ctx.Err() discard it. No panic, no hang.
	_, left, right := Leading(ctx, g.Freeze(), 0)
	if len(left) != 3 || len(right) != 3 {
		t.Fatalf("cancelled Leading returned malformed vectors: %v %v", left, right)
	}
}
