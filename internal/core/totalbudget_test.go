package core

import (
	"context"

	"testing"

	"repro/internal/ugraph"
)

func TestTotalBudgetBasic(t *testing.T) {
	// Example 3 instance: with a total budget of 1.0 the solver must
	// allocate probability across {sB, sC, Bt} and produce a clear gain.
	g, cands := example3Graph()
	opt := ex3Options()
	opt.Candidates = cands
	sol, err := SolveTotalBudget(context.Background(), g.Freeze(), ex3S, ex3T, 1.0, opt)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Spent > 1.0+1e-9 {
		t.Fatalf("spent %v exceeds budget 1.0", sol.Spent)
	}
	total := 0.0
	for _, e := range sol.Edges {
		if e.P <= 0 || e.P > 1 {
			t.Fatalf("allocated probability %v out of range", e.P)
		}
		if g.HasEdge(e.U, e.V) {
			t.Fatalf("existing edge allocated: %+v", e)
		}
		total += e.P
	}
	if total > 1.0+1e-9 {
		t.Fatalf("allocations sum to %v > budget", total)
	}
	if sol.Gain < 0.05 {
		t.Fatalf("gain %v too small for budget 1.0 on the Example 3 instance", sol.Gain)
	}
}

func TestTotalBudgetMoreBudgetAtLeastAsGood(t *testing.T) {
	g, cands := example3Graph()
	opt := ex3Options()
	opt.Candidates = cands
	small, err := SolveTotalBudget(context.Background(), g.Freeze(), ex3S, ex3T, 0.5, opt)
	if err != nil {
		t.Fatal(err)
	}
	large, err := SolveTotalBudget(context.Background(), g.Freeze(), ex3S, ex3T, 1.5, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Allow sampling noise, but the trend must hold.
	if large.Gain < small.Gain-0.05 {
		t.Fatalf("budget 1.5 gain %v below budget 0.5 gain %v", large.Gain, small.Gain)
	}
}

func TestTotalBudgetValidation(t *testing.T) {
	g, cands := example3Graph()
	opt := ex3Options()
	opt.Candidates = cands
	if _, err := SolveTotalBudget(context.Background(), g.Freeze(), ex3S, ex3T, 0, opt); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := SolveTotalBudget(context.Background(), g.Freeze(), ex3S, ex3S, 1, opt); err == nil {
		t.Error("s == t accepted")
	}
	if _, err := SolveTotalBudget(context.Background(), g.Freeze(), ex3S, ex3T, -1, opt); err == nil {
		t.Error("negative budget accepted")
	}
}

func TestTotalBudgetCapsPerEdgeAtOne(t *testing.T) {
	// Single candidate on the only possible path: all budget beyond 1.0
	// must stay unspent.
	g := ugraph.New(3, true)
	g.MustAddEdge(1, 2, 0.9)
	opt := Options{K: 2, L: 5, Z: 1500, Seed: 4, Candidates: []ugraph.Edge{{U: 0, V: 1, P: 0.5}}}
	sol, err := SolveTotalBudget(context.Background(), g.Freeze(), 0, 2, 3.0, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Edges) != 1 {
		t.Fatalf("edges = %v, want exactly the single candidate", sol.Edges)
	}
	if sol.Edges[0].P > 1+1e-9 {
		t.Fatalf("allocation %v exceeds 1", sol.Edges[0].P)
	}
	if sol.Spent > 1+1e-9 {
		t.Fatalf("spent %v, want ≤ 1 (single edge saturates)", sol.Spent)
	}
}

func TestTotalBudgetPrefersCheapSingleEdgePath(t *testing.T) {
	// Two routes: a one-candidate route (via existing 0.9 edge) and a
	// two-candidate route. With a small budget the allocator must favour
	// the single-edge route.
	g := ugraph.New(4, true)
	g.MustAddEdge(1, 3, 0.9)
	cands := []ugraph.Edge{
		{U: 0, V: 1, P: 0.5}, // completes route 0→1→3 alone
		{U: 0, V: 2, P: 0.5}, // route 0→2→3 needs both
		{U: 2, V: 3, P: 0.5},
	}
	opt := Options{K: 2, L: 6, Z: 3000, Seed: 8, Candidates: cands}
	sol, err := SolveTotalBudget(context.Background(), g.Freeze(), 0, 3, 0.6, opt)
	if err != nil {
		t.Fatal(err)
	}
	alloc01 := 0.0
	for _, e := range sol.Edges {
		if e.U == 0 && e.V == 1 {
			alloc01 = e.P
		}
	}
	if alloc01 < sol.Spent*0.6 {
		t.Fatalf("0→1 got %v of %v spent; expected the bulk of the budget (edges: %v)",
			alloc01, sol.Spent, sol.Edges)
	}
}
