package candidates

import (
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/rng"
	"repro/internal/ugraph"
)

// rebuild materializes a snapshot's logical edge set as a fresh flat CSR —
// the representation every walker is expected to agree with.
func rebuild(c *ugraph.CSR) *ugraph.CSR {
	g := ugraph.New(c.N(), c.Directed())
	for _, e := range c.Edges() {
		g.MustAddEdge(e.U, e.V, e.P)
	}
	return g.Freeze()
}

// TestOverlayWalkersMatchFlatRebuild guards the overlay hazard: solvers
// hand WithEdges views (a greedy round's working graph) to hop-constrained
// elimination, so hop distances, missingPairs and AllMissing on a view —
// over a flat base and over a delta epoch — must equal the same calls on
// the flat rebuild of that view.
func TestOverlayWalkersMatchFlatRebuild(t *testing.T) {
	for _, directed := range []bool{false, true} {
		r := rng.New(11)
		g := gen.ErdosRenyi(30, 36, directed, r)
		gen.AssignUniform(g, 0.2, 0.9, r)
		flatBase := g.Freeze()
		missing := AllMissing(flatBase, 0, 0.5)
		var extra []ugraph.Edge
		for i := 0; i < len(missing); i += len(missing) / 5 {
			extra = append(extra, missing[i])
		}
		e0 := flatBase.Endpoints(0)
		delta, err := flatBase.Delta([]ugraph.DeltaEdit{
			{Op: ugraph.DeltaRemove, U: e0.U, V: e0.V},
			{Op: ugraph.DeltaAdd, U: missing[1].U, V: missing[1].V, P: 0.7},
		})
		if err != nil {
			t.Fatal(err)
		}
		for name, base := range map[string]*ugraph.CSR{"flat": flatBase, "delta": delta} {
			view := base.WithEdges(extra)
			flat := rebuild(view)
			if view.M() != flat.M() || !view.HasOverlay() {
				t.Fatalf("directed=%v %s: view M=%d overlay=%v, rebuild M=%d", directed, name, view.M(), view.HasOverlay(), flat.M())
			}
			for src := ugraph.NodeID(0); int(src) < g.N(); src++ {
				for _, maxHops := range []int{-1, 1, 2} {
					for _, both := range []bool{false, true} {
						if got, want := view.HopDistances(src, maxHops, both), flat.HopDistances(src, maxHops, both); !slices.Equal(got, want) {
							t.Fatalf("directed=%v %s: HopDistances(%d,%d,%v) = %v, rebuild %v", directed, name, src, maxHops, both, got, want)
						}
					}
				}
			}
			nodes := make([]ugraph.NodeID, g.N())
			for i := range nodes {
				nodes[i] = ugraph.NodeID(i)
			}
			for _, h := range []int{0, 1, 2} {
				opt := Options{H: h, Zeta: 0.5}
				if got, want := missingPairs(view, nodes[:12], nodes[10:], opt), missingPairs(flat, nodes[:12], nodes[10:], opt); !slices.Equal(got, want) {
					t.Fatalf("directed=%v %s h=%d: missingPairs on the view differs from the rebuild\n got %v\nwant %v", directed, name, h, got, want)
				}
				if got, want := AllMissing(view, h, 0.5), AllMissing(flat, h, 0.5); !slices.Equal(got, want) {
					t.Fatalf("directed=%v %s h=%d: AllMissing on the view differs from the rebuild", directed, name, h)
				}
			}
		}
	}
}
