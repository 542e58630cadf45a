package core

import (
	"context"

	"testing"
	"time"

	"repro/internal/datasets"
)

// TestPaperShapeSingleSource asserts the paper's central qualitative
// findings at laptop scale (Tables 5 and 9): the flagship BE solver's gain
// dominates the restricted MRP solver's, tracks hill climbing, and runs an
// order of magnitude faster than hill climbing.
func TestPaperShapeSingleSource(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test needs a few seconds")
	}
	g, err := datasets.Load("lastfm", 0.04, 11)
	if err != nil {
		t.Fatal(err)
	}
	queries := datasets.Queries(g, 4, 3, 5, 13)
	if len(queries) < 3 {
		t.Fatal("not enough queries")
	}
	methods := []Method{MethodHillClimbing, MethodMRP, MethodBE}
	gain := map[Method]float64{}
	elapsed := map[Method]time.Duration{}
	for qi, q := range queries {
		for _, m := range methods {
			opt := Options{K: 8, Zeta: 0.5, R: 15, L: 12, Z: 200, Seed: 31 + int64(qi), H: 3}
			sol, err := Solve(context.Background(), g.Freeze(), q.S, q.T, m, opt)
			if err != nil {
				t.Fatalf("%s: %v", m, err)
			}
			gain[m] += sol.Gain
			elapsed[m] += sol.SelectTime
		}
	}
	// Shape 1: BE ≥ MRP in gain (multiple paths beat the single most
	// reliable path), with slack for sampling noise.
	if gain[MethodBE] < gain[MethodMRP]-0.05 {
		t.Errorf("BE gain %v below MRP gain %v", gain[MethodBE], gain[MethodMRP])
	}
	// Shape 2: BE within a reasonable margin of HC's gain.
	if gain[MethodBE] < 0.6*gain[MethodHillClimbing] {
		t.Errorf("BE gain %v collapsed versus HC %v", gain[MethodBE], gain[MethodHillClimbing])
	}
	// Shape 3: BE selection at least 3× faster than HC selection (the
	// paper reports 10-100×).
	if elapsed[MethodHillClimbing] < 3*elapsed[MethodBE] {
		t.Errorf("HC time %v not dominating BE time %v", elapsed[MethodHillClimbing], elapsed[MethodBE])
	}
}

// TestPaperShapeRSSFasterAtEqualAccuracy mirrors Tables 6-7: at the
// paper's converged sample sizes (MC needs ~2× the samples), RSS-backed
// selection is at least as fast as MC-backed selection.
func TestPaperShapeRSSFasterAtEqualAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test needs a few seconds")
	}
	g, err := datasets.Load("astopo", 0.04, 17)
	if err != nil {
		t.Fatal(err)
	}
	queries := datasets.Queries(g, 3, 3, 5, 19)
	var mcTime, rssTime time.Duration
	for qi, q := range queries {
		optMC := Options{K: 6, Zeta: 0.5, R: 15, L: 10, Z: 400, Sampler: "mc", Seed: 41 + int64(qi), H: 3}
		solMC, err := Solve(context.Background(), g.Freeze(), q.S, q.T, MethodBE, optMC)
		if err != nil {
			t.Fatal(err)
		}
		optRSS := optMC
		optRSS.Sampler = "rss"
		optRSS.Z = 200
		solRSS, err := Solve(context.Background(), g.Freeze(), q.S, q.T, MethodBE, optRSS)
		if err != nil {
			t.Fatal(err)
		}
		mcTime += solMC.ElimTime + solMC.SelectTime
		rssTime += solRSS.ElimTime + solRSS.SelectTime
	}
	if rssTime > mcTime*3/2 {
		t.Errorf("RSS at half samples (%v) much slower than MC (%v)", rssTime, mcTime)
	}
}
