package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/rng"
	"repro/internal/ugraph"
)

// Solver output pins. Every single-pair Method, every multi Method under
// every Aggregate, and SolveTotalBudget run on three fixed fixtures at
// Workers 0 and 2; the chosen edges and the exact bits of Base/After must
// match the values recorded below. Any change to the RNG call order, the
// graph each estimate runs on, or the arc order of that graph shows up
// here as a bit difference.
//
// The solver entry points are reached through type switches so the test
// compiles whether they take the builder Graph or its frozen CSR.

type pinFixture struct {
	name             string
	g                *ugraph.Graph
	h                int
	s, t             ugraph.NodeID
	sources, targets []ugraph.NodeID
}

func pinFixtures() []pinFixture {
	build := func(directed bool, seed int64) *ugraph.Graph {
		r := rng.New(seed)
		g := gen.ErdosRenyi(24, 48, directed, r)
		gen.AssignUniform(g, 0.2, 0.9, r)
		return g
	}
	und, dir := build(false, 3), build(true, 4)
	return []pinFixture{
		{name: "undirected", g: und, s: 0, t: 15, sources: []ugraph.NodeID{0, 1}, targets: []ugraph.NodeID{15, 21}},
		{name: "directed", g: dir, s: 0, t: 17, sources: []ugraph.NodeID{0, 1}, targets: []ugraph.NodeID{17, 22}},
		{name: "undirected-h2", g: und, h: 2, s: 0, t: 15, sources: []ugraph.NodeID{0, 1}, targets: []ugraph.NodeID{15, 21}},
	}
}

func pinSolve(ctx context.Context, g *ugraph.Graph, s, t ugraph.NodeID, m Method, opt Options) (Solution, error) {
	switch f := any(Solve).(type) {
	case func(context.Context, *ugraph.Graph, ugraph.NodeID, ugraph.NodeID, Method, Options) (Solution, error):
		return f(ctx, g, s, t, m, opt)
	case func(context.Context, *ugraph.CSR, ugraph.NodeID, ugraph.NodeID, Method, Options) (Solution, error):
		return f(ctx, g.Freeze(), s, t, m, opt)
	}
	panic("unexpected Solve signature")
}

func pinSolveMulti(ctx context.Context, g *ugraph.Graph, src, dst []ugraph.NodeID, agg Aggregate, m Method, opt Options) (MultiSolution, error) {
	switch f := any(SolveMulti).(type) {
	case func(context.Context, *ugraph.Graph, []ugraph.NodeID, []ugraph.NodeID, Aggregate, Method, Options) (MultiSolution, error):
		return f(ctx, g, src, dst, agg, m, opt)
	case func(context.Context, *ugraph.CSR, []ugraph.NodeID, []ugraph.NodeID, Aggregate, Method, Options) (MultiSolution, error):
		return f(ctx, g.Freeze(), src, dst, agg, m, opt)
	}
	panic("unexpected SolveMulti signature")
}

func pinSolveTotalBudget(ctx context.Context, g *ugraph.Graph, s, t ugraph.NodeID, budget float64, opt Options) (TotalBudgetSolution, error) {
	switch f := any(SolveTotalBudget).(type) {
	case func(context.Context, *ugraph.Graph, ugraph.NodeID, ugraph.NodeID, float64, Options) (TotalBudgetSolution, error):
		return f(ctx, g, s, t, budget, opt)
	case func(context.Context, *ugraph.CSR, ugraph.NodeID, ugraph.NodeID, float64, Options) (TotalBudgetSolution, error):
		return f(ctx, g.Freeze(), s, t, budget, opt)
	}
	panic("unexpected SolveTotalBudget signature")
}

// pinLine renders one outcome: edges with their probability bits, then the
// bits of Base and After.
func pinLine(edges []ugraph.Edge, base, after float64) string {
	var b strings.Builder
	for i, e := range edges {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d-%d:%x", e.U, e.V, math.Float64bits(e.P))
	}
	return fmt.Sprintf("[%s] %x %x", b.String(), math.Float64bits(base), math.Float64bits(after))
}

func TestSolverOutputsPinned(t *testing.T) {
	ctx := context.Background()
	got := map[string]string{}
	var order []string
	record := func(key, line string) {
		got[key] = line
		order = append(order, key)
	}
	for _, fx := range pinFixtures() {
		for _, w := range []int{0, 2} {
			opt := Options{K: 3, R: 5, L: 8, Z: 160, H: fx.h, Seed: 5, Workers: w}
			for _, m := range Methods() {
				sol, err := pinSolve(ctx, fx.g, fx.s, fx.t, m, opt)
				if err != nil {
					t.Fatalf("%s/w%d/%s: %v", fx.name, w, m, err)
				}
				record(fmt.Sprintf("%s/w%d/single/%s", fx.name, w, m), pinLine(sol.Edges, sol.Base, sol.After))
			}
			for _, m := range []Method{MethodBE, MethodHillClimbing, MethodEigen} {
				for _, agg := range []Aggregate{AggAvg, AggMin, AggMax} {
					sol, err := pinSolveMulti(ctx, fx.g, fx.sources, fx.targets, agg, m, opt)
					if err != nil {
						t.Fatalf("%s/w%d/multi/%s/%s: %v", fx.name, w, m, agg, err)
					}
					record(fmt.Sprintf("%s/w%d/multi/%s/%s", fx.name, w, m, agg), pinLine(sol.Edges, sol.Base, sol.After))
				}
			}
			sol, err := pinSolveTotalBudget(ctx, fx.g, fx.s, fx.t, 1.2, opt)
			if err != nil {
				t.Fatalf("%s/w%d/total: %v", fx.name, w, err)
			}
			record(fmt.Sprintf("%s/w%d/total", fx.name, w), pinLine(sol.Edges, sol.Base, sol.After))
		}
	}
	if len(got) != len(pinnedOutputs) {
		t.Errorf("%d outcomes, %d pinned", len(got), len(pinnedOutputs))
	}
	for _, key := range order {
		if want, ok := pinnedOutputs[key]; !ok || want != got[key] {
			t.Errorf("%s:\n got  %q\n want %q", key, got[key], want)
		}
	}
}

var pinnedOutputs = map[string]string{
	"undirected/w0/single/topk":           "[7-15:3fe0000000000000 14-12:3fe0000000000000 0-15:3fe0000000000000] 3fe9617233b96d8c 3fef02a74414d60f",
	"undirected/w0/single/hc":             "[7-15:3fe0000000000000 0-12:3fe0000000000000 3-15:3fe0000000000000] 3fe9617233b96d8c 3fef9a2a14c951d7",
	"undirected/w0/single/degree":         "[0-17:3fe0000000000000 14-17:3fe0000000000000 7-17:3fe0000000000000] 3fe9617233b96d8c 3fe9260b344bc9df",
	"undirected/w0/single/betweenness":    "[14-0:3fe0000000000000 0-17:3fe0000000000000 14-17:3fe0000000000000] 3fe9617233b96d8c 3febb97502a69d0c",
	"undirected/w0/single/eigen":          "[0-17:3fe0000000000000 0-9:3fe0000000000000 14-17:3fe0000000000000] 3fe9617233b96d8c 3feb846589a818c4",
	"undirected/w0/single/mrp":            "[0-15:3fe0000000000000] 3fe9617233b96d8c 3fed9eeb5cadd771",
	"undirected/w0/single/ip":             "[0-15:3fe0000000000000 0-12:3fe0000000000000 18-15:3fe0000000000000] 3fe9617233b96d8c 3feecb7d3682dd9c",
	"undirected/w0/single/be":             "[0-15:3fe0000000000000 0-12:3fe0000000000000 18-15:3fe0000000000000] 3fe9617233b96d8c 3feecb7d3682dd9c",
	"undirected/w0/single/exact":          "[0-15:3fe0000000000000 14-12:3fe0000000000000 7-15:3fe0000000000000] 3fe9617233b96d8c 3fef02a74414d60f",
	"undirected/w0/multi/be/avg":          "[1-15:3fe0000000000000 1-21:3fe0000000000000 0-15:3fe0000000000000] 3fe70833ba0796bc 3fecdc069d052b72",
	"undirected/w0/multi/be/min":          "[1-15:3fe0000000000000 1-21:3fe0000000000000 1-12:3fe0000000000000] 3fe14a7cecaf8d7c 3fedbd6f3287da63",
	"undirected/w0/multi/be/max":          "[0-21:3fe0000000000000 0-17:3fe0000000000000 14-21:3fe0000000000000] 3fecad783bfd9cb5 3feec90e358ace40",
	"undirected/w0/multi/hc/avg":          "[1-15:3fe0000000000000 1-21:3fe0000000000000 18-15:3fe0000000000000] 3fe70833ba0796bc 3fecc56925a6991c",
	"undirected/w0/multi/hc/min":          "[1-15:3fe0000000000000 1-21:3fe0000000000000 0-15:3fe0000000000000] 3fe14a7cecaf8d7c 3fec230ea020ffe4",
	"undirected/w0/multi/hc/max":          "[0-21:3fe0000000000000 14-21:3fe0000000000000 0-15:3fe0000000000000] 3fecad783bfd9cb5 3fef25b6a9693812",
	"undirected/w0/multi/eigen/avg":       "[0-14:3fe0000000000000 0-21:3fe0000000000000 14-21:3fe0000000000000] 3fe70833ba0796bc 3fe83f75874ac426",
	"undirected/w0/multi/eigen/min":       "[0-14:3fe0000000000000 0-21:3fe0000000000000 14-21:3fe0000000000000] 3fe14a7cecaf8d7c 3fe141adfada31f7",
	"undirected/w0/multi/eigen/max":       "[0-14:3fe0000000000000 0-21:3fe0000000000000 14-21:3fe0000000000000] 3fecad783bfd9cb5 3fef68e80645c129",
	"undirected/w0/total":                 "[0-12:3fd3333333333333 0-15:3fe147ae147ae148 3-15:3fbeb851eb851eb8 14-12:3fc70a3d70a3d6f4 18-15:3faeb851eb851eb8] 3fea2e4e2b3cfcd3 3fef073f59f49f64",
	"undirected/w2/single/topk":           "[6-15:3fe0000000000000 0-15:3fe0000000000000 17-15:3fe0000000000000] 3fe994568ae8ed8e 3feefa4baa3eefd0",
	"undirected/w2/single/hc":             "[6-15:3fe0000000000000 14-21:3fe0000000000000 9-15:3fe0000000000000] 3fe994568ae8ed8e 3feea0a77f6f948e",
	"undirected/w2/single/degree":         "[0-17:3fe0000000000000 14-17:3fe0000000000000 0-6:3fe0000000000000] 3fe994568ae8ed8e 3fea4217c78444cd",
	"undirected/w2/single/betweenness":    "[0-6:3fe0000000000000 0-17:3fe0000000000000 14-17:3fe0000000000000] 3fe994568ae8ed8e 3fea18f807a960e8",
	"undirected/w2/single/eigen":          "[0-17:3fe0000000000000 14-17:3fe0000000000000 0-6:3fe0000000000000] 3fe994568ae8ed8e 3fea4217c78444cd",
	"undirected/w2/single/mrp":            "[0-15:3fe0000000000000] 3fe994568ae8ed8e 3fedaaf72c978c13",
	"undirected/w2/single/ip":             "[0-15:3fe0000000000000 0-12:3fe0000000000000 14-12:3fe0000000000000] 3fe994568ae8ed8e 3fee86b9fb3cb566",
	"undirected/w2/single/be":             "[0-15:3fe0000000000000 0-12:3fe0000000000000 14-12:3fe0000000000000] 3fe994568ae8ed8e 3fee86b9fb3cb566",
	"undirected/w2/single/exact":          "[0-15:3fe0000000000000 6-15:3fe0000000000000 17-15:3fe0000000000000] 3fe994568ae8ed8e 3feefa4baa3eefd0",
	"undirected/w2/multi/be/avg":          "[1-15:3fe0000000000000 1-9:3fe0000000000000 14-21:3fe0000000000000] 3fe5fc44515e8187 3fec3d1b58581885",
	"undirected/w2/multi/be/min":          "[1-15:3fe0000000000000 1-21:3fe0000000000000 1-12:3fe0000000000000] 3fdf65749866798d 3fecb2dbcdf7c627",
	"undirected/w2/multi/be/max":          "[0-21:3fe0000000000000 14-21:3fe0000000000000 14-0:3fe0000000000000] 3fec6f8d5578f085 3fef724a6dc1e337",
	"undirected/w2/multi/hc/avg":          "[1-15:3fe0000000000000 1-21:3fe0000000000000 0-15:3fe0000000000000] 3fe5fc44515e8187 3fed2c0fbb079cc8",
	"undirected/w2/multi/hc/min":          "[1-15:3fe0000000000000 1-21:3fe0000000000000 0-15:3fe0000000000000] 3fdf65749866798d 3feba094600f68cc",
	"undirected/w2/multi/hc/max":          "[6-21:3fe0000000000000 0-21:3fe0000000000000 14-21:3fe0000000000000] 3fec6f8d5578f085 3fefd45db1bf70f2",
	"undirected/w2/multi/eigen/avg":       "[0-9:3fe0000000000000 0-6:3fe0000000000000 14-9:3fe0000000000000] 3fe5fc44515e8187 3fe6caedb7584e13",
	"undirected/w2/multi/eigen/min":       "[0-9:3fe0000000000000 0-6:3fe0000000000000 14-9:3fe0000000000000] 3fdf65749866798d 3fe2408cc9fdf0ee",
	"undirected/w2/multi/eigen/max":       "[0-9:3fe0000000000000 0-6:3fe0000000000000 14-9:3fe0000000000000] 3fec6f8d5578f085 3fec0bbe1633335c",
	"undirected/w2/total":                 "[0-12:3fceb851eb851eb8 0-15:3fd70a3d70a3d70a 0-21:3fd70a3d70a3d70a 14-12:3fceb851eb851ea2] 3fe9afc049215856 3fed7cedac58d442",
	"directed/w0/single/topk":             "[0-17:3fe0000000000000 10-17:3fe0000000000000 21-17:3fe0000000000000] 3fb9719003840e86 3fe988c3e58d5b2e",
	"directed/w0/single/hc":               "[0-17:3fe0000000000000 10-17:3fe0000000000000 21-17:3fe0000000000000] 3fb9719003840e86 3fe988c3e58d5b2e",
	"directed/w0/single/degree":           "[10-9:3fe0000000000000 0-9:3fe0000000000000 9-17:3fe0000000000000] 3fb9719003840e86 3fdc90f407095a38",
	"directed/w0/single/betweenness":      "[0-9:3fe0000000000000 2-9:3fe0000000000000 9-5:3fe0000000000000] 3fb9719003840e86 3fd2ee666da5b6c3",
	"directed/w0/single/eigen":            "[10-9:3fe0000000000000 21-3:3fe0000000000000 9-5:3fe0000000000000] 3fb9719003840e86 3fcf4039220afcb0",
	"directed/w0/single/mrp":              "[0-17:3fe0000000000000] 3fb9719003840e86 3fe0658ca8cdbd96",
	"directed/w0/single/ip":               "[0-17:3fe0000000000000 0-5:3fe0000000000000 10-17:3fe0000000000000] 3fb9719003840e86 3fe862248220da77",
	"directed/w0/single/be":               "[0-17:3fe0000000000000 0-5:3fe0000000000000 10-17:3fe0000000000000] 3fb9719003840e86 3fe862248220da77",
	"directed/w0/single/exact":            "[0-17:3fe0000000000000 0-5:3fe0000000000000 10-17:3fe0000000000000] 3fb9719003840e86 3fe862248220da77",
	"directed/w0/multi/be/avg":            "[1-22:3fe0000000000000 0-22:3fe0000000000000 0-17:3fe0000000000000] 3faea4668db553f7 3fe2b079a57ee5d6",
	"directed/w0/multi/be/min":            "[0-22:3fe0000000000000 1-17:3fe0000000000000 0-17:3fe0000000000000] 3fa34b39f5ae8279 3fdc418bb3115c37",
	"directed/w0/multi/be/max":            "[1-17:3fe0000000000000 13-17:3fe0000000000000 1-5:3fe0000000000000] 3fb48dce3199b7b5 3fe88a39ab641ce4",
	"directed/w0/multi/hc/avg":            "[0-17:3fe0000000000000 0-22:3fe0000000000000 1-22:3fe0000000000000] 3faea4668db553f7 3fe3029b6b69b3d0",
	"directed/w0/multi/hc/min":            "[0-17:3fe0000000000000 0-22:3fe0000000000000 1-22:3fe0000000000000] 3fa34b39f5ae8279 3fde305e63c50a89",
	"directed/w0/multi/hc/max":            "[1-17:3fe0000000000000 1-22:3fe0000000000000 0-17:3fe0000000000000] 3fb48dce3199b7b5 3fe7d9dc49ff39e1",
	"directed/w0/multi/eigen/avg":         "[1-5:3fe0000000000000 1-17:3fe0000000000000 0-5:3fe0000000000000] 3faea4668db553f7 3fd6061b31e95a20",
	"directed/w0/multi/eigen/min":         "[1-5:3fe0000000000000 1-17:3fe0000000000000 0-5:3fe0000000000000] 3fa34b39f5ae8279 3fc3ff4a23884cec",
	"directed/w0/multi/eigen/max":         "[1-5:3fe0000000000000 1-17:3fe0000000000000 0-5:3fe0000000000000] 3fb48dce3199b7b5 3fe4d59f59947961",
	"directed/w0/total":                   "[0-5:3fbeb851eb851e8c 0-17:3feeb851eb851ebc 0-22:3faeb851eb851eb8 21-17:3faeb851eb851eb8] 3fb1974810d1c09b 3feedfa43fe5c920",
	"directed/w2/single/topk":             "[0-17:3fe0000000000000 10-17:3fe0000000000000 21-17:3fe0000000000000] 3faa486dca8b8e6b 3fe98a6c6507d89e",
	"directed/w2/single/hc":               "[0-17:3fe0000000000000 21-17:3fe0000000000000 10-17:3fe0000000000000] 3faa486dca8b8e6b 3fe98a6c6507d89e",
	"directed/w2/single/degree":           "[9-17:3fe0000000000000 9-22:3fe0000000000000 10-17:3fe0000000000000] 3faa486dca8b8e6b 3fe16059ea96ee33",
	"directed/w2/single/betweenness":      "[9-5:3fe0000000000000 9-22:3fe0000000000000 9-17:3fe0000000000000] 3faa486dca8b8e6b 3fcc9be15208ffa8",
	"directed/w2/single/eigen":            "[21-3:3fe0000000000000 9-5:3fe0000000000000 10-3:3fe0000000000000] 3faa486dca8b8e6b 3fd03fe8dec26986",
	"directed/w2/single/mrp":              "[0-17:3fe0000000000000] 3faa486dca8b8e6b 3fe19d30587c20fb",
	"directed/w2/single/ip":               "[0-17:3fe0000000000000 0-5:3fe0000000000000 10-17:3fe0000000000000] 3faa486dca8b8e6b 3feab9869d0ea58d",
	"directed/w2/single/be":               "[0-17:3fe0000000000000 0-5:3fe0000000000000 10-17:3fe0000000000000] 3faa486dca8b8e6b 3feab9869d0ea58d",
	"directed/w2/single/exact":            "[0-17:3fe0000000000000 0-5:3fe0000000000000 21-17:3fe0000000000000] 3faa486dca8b8e6b 3fe8dcccea07b18d",
	"directed/w2/multi/be/avg":            "[1-22:3fe0000000000000 0-22:3fe0000000000000 0-17:3fe0000000000000] 3facfbbacec8b4ed 3fe31ea76e49bb27",
	"directed/w2/multi/be/min":            "[0-22:3fe0000000000000 1-17:3fe0000000000000 0-17:3fe0000000000000] 3fa5f371bd86867d 3fe0e1c1d409ca48",
	"directed/w2/multi/be/max":            "[1-17:3fe0000000000000 1-5:3fe0000000000000 13-17:3fe0000000000000] 3fb3931d3c9c9427 3fea24a17b36babd",
	"directed/w2/multi/hc/avg":            "[0-22:3fe0000000000000 0-17:3fe0000000000000 1-17:3fe0000000000000] 3facfbbacec8b4ed 3fe3b3e4996c3d90",
	"directed/w2/multi/hc/min":            "[0-22:3fe0000000000000 21-17:3fe0000000000000 21-14:3fe0000000000000] 3fa5f371bd86867d 3fd773e262df858a",
	"directed/w2/multi/hc/max":            "[1-22:3fe0000000000000 1-14:3fe0000000000000 21-22:3fe0000000000000] 3fb3931d3c9c9427 3fe8a5ac86b3f2bc",
	"directed/w2/multi/eigen/avg":         "[1-17:3fe0000000000000 1-22:3fe0000000000000 21-17:3fe0000000000000] 3facfbbacec8b4ed 3fde8363b1035cbd",
	"directed/w2/multi/eigen/min":         "[1-17:3fe0000000000000 1-22:3fe0000000000000 21-17:3fe0000000000000] 3fa5f371bd86867d 3fc20121281b5566",
	"directed/w2/multi/eigen/max":         "[1-17:3fe0000000000000 1-22:3fe0000000000000 21-17:3fe0000000000000] 3fb3931d3c9c9427 3fe7c85bdf2a79f7",
	"directed/w2/total":                   "[0-5:3faeb851eb851eb8 0-17:3feeb851eb851ebc 10-5:3fbeb851eb851e8c 10-17:3faeb851eb851eb8] 3fa6f6e2a3786ede 3fef1a0cedaf41dd",
	"undirected-h2/w0/single/topk":        "[3-15:3fe0000000000000 7-15:3fe0000000000000 18-15:3fe0000000000000] 3fe9617233b96d8c 3feeae1eafec0086",
	"undirected-h2/w0/single/hc":          "[3-15:3fe0000000000000 0-12:3fe0000000000000 18-12:3fe0000000000000] 3fe9617233b96d8c 3fedd2af0713d197",
	"undirected-h2/w0/single/degree":      "[0-17:3fe0000000000000 14-17:3fe0000000000000 7-17:3fe0000000000000] 3fe9617233b96d8c 3fe9260b344bc9df",
	"undirected-h2/w0/single/betweenness": "[14-0:3fe0000000000000 0-17:3fe0000000000000 14-17:3fe0000000000000] 3fe9617233b96d8c 3febb97502a69d0c",
	"undirected-h2/w0/single/eigen":       "[0-17:3fe0000000000000 0-9:3fe0000000000000 14-17:3fe0000000000000] 3fe9617233b96d8c 3feb846589a818c4",
	"undirected-h2/w0/single/mrp":         "[0-12:3fe0000000000000] 3fe9617233b96d8c 3fec0c4ec285062e",
	"undirected-h2/w0/single/ip":          "[0-12:3fe0000000000000 18-15:3fe0000000000000 3-15:3fe0000000000000] 3fe9617233b96d8c 3feeadf0b792e087",
	"undirected-h2/w0/single/be":          "[0-12:3fe0000000000000 18-15:3fe0000000000000 3-15:3fe0000000000000] 3fe9617233b96d8c 3feeadf0b792e087",
	"undirected-h2/w0/single/exact":       "[7-15:3fe0000000000000 3-15:3fe0000000000000 3-9:3fe0000000000000] 3fe9617233b96d8c 3feed4b6d8db6581",
	"undirected-h2/w0/multi/be/avg":       "[1-15:3fe0000000000000 0-21:3fe0000000000000 18-15:3fe0000000000000] 3fe70833ba0796bc 3febf6c5bda416e0",
	"undirected-h2/w0/multi/be/min":       "[1-15:3fe0000000000000 1-12:3fe0000000000000 1-21:3fe0000000000000] 3fe14a7cecaf8d7c 3febacd2a651d292",
	"undirected-h2/w0/multi/be/max":       "[0-21:3fe0000000000000 0-17:3fe0000000000000 14-21:3fe0000000000000] 3fecad783bfd9cb5 3feec90e358ace40",
	"undirected-h2/w0/multi/hc/avg":       "[1-15:3fe0000000000000 18-15:3fe0000000000000 0-21:3fe0000000000000] 3fe70833ba0796bc 3febf6c5bda416e0",
	"undirected-h2/w0/multi/hc/min":       "[1-15:3fe0000000000000 0-21:3fe0000000000000 14-21:3fe0000000000000] 3fe14a7cecaf8d7c 3fe8f398a49d38b6",
	"undirected-h2/w0/multi/hc/max":       "[0-21:3fe0000000000000 1-15:3fe0000000000000 14-21:3fe0000000000000] 3fecad783bfd9cb5 3fefaecb4d153f3b",
	"undirected-h2/w0/multi/eigen/avg":    "[0-14:3fe0000000000000 0-21:3fe0000000000000 14-21:3fe0000000000000] 3fe70833ba0796bc 3fe83f75874ac426",
	"undirected-h2/w0/multi/eigen/min":    "[0-14:3fe0000000000000 0-21:3fe0000000000000 14-21:3fe0000000000000] 3fe14a7cecaf8d7c 3fe141adfada31f7",
	"undirected-h2/w0/multi/eigen/max":    "[0-14:3fe0000000000000 0-21:3fe0000000000000 14-21:3fe0000000000000] 3fecad783bfd9cb5 3fef68e80645c129",
	"undirected-h2/w0/total":              "[0-12:3fe147ae147ae148 3-15:3fceb851eb851eb8 14-12:3fc70a3d70a3d6f4 18-12:3fc70a3d70a3d70a 18-15:3faeb851eb851eb8] 3fea2e4e2b3cfcd3 3fed5598988b4712",
	"undirected-h2/w2/single/topk":        "[14-12:3fe0000000000000 17-12:3fe0000000000000 6-15:3fe0000000000000] 3fe994568ae8ed8e 3feec8de3eaa2303",
	"undirected-h2/w2/single/hc":          "[14-12:3fe0000000000000 0-12:3fe0000000000000 6-21:3fe0000000000000] 3fe994568ae8ed8e 3fed1a4211829f4a",
	"undirected-h2/w2/single/degree":      "[0-17:3fe0000000000000 14-17:3fe0000000000000 0-6:3fe0000000000000] 3fe994568ae8ed8e 3fea4217c78444cd",
	"undirected-h2/w2/single/betweenness": "[0-6:3fe0000000000000 0-17:3fe0000000000000 14-17:3fe0000000000000] 3fe994568ae8ed8e 3fea18f807a960e8",
	"undirected-h2/w2/single/eigen":       "[0-17:3fe0000000000000 14-17:3fe0000000000000 0-6:3fe0000000000000] 3fe994568ae8ed8e 3fea4217c78444cd",
	"undirected-h2/w2/single/mrp":         "[0-12:3fe0000000000000] 3fe994568ae8ed8e 3feba445f7e79cd6",
	"undirected-h2/w2/single/ip":          "[0-21:3fe0000000000000 0-6:3fe0000000000000 6-15:3fe0000000000000] 3fe994568ae8ed8e 3fed6c3bb6a6e32a",
	"undirected-h2/w2/single/be":          "[0-12:3fe0000000000000 0-21:3fe0000000000000 14-12:3fe0000000000000] 3fe994568ae8ed8e 3fedd04749ed9596",
	"undirected-h2/w2/single/exact":       "[0-12:3fe0000000000000 6-15:3fe0000000000000 14-12:3fe0000000000000] 3fe994568ae8ed8e 3fee6f0dfdf322fa",
	"undirected-h2/w2/multi/be/avg":       "[1-15:3fe0000000000000 1-9:3fe0000000000000 6-15:3fe0000000000000] 3fe5fc44515e8187 3fecdbebd372c521",
	"undirected-h2/w2/multi/be/min":       "[1-15:3fe0000000000000 1-17:3fe0000000000000 1-21:3fe0000000000000] 3fdf65749866798d 3fec7e4bfa821610",
	"undirected-h2/w2/multi/be/max":       "[0-21:3fe0000000000000 14-21:3fe0000000000000 14-0:3fe0000000000000] 3fec6f8d5578f085 3fef724a6dc1e337",
	"undirected-h2/w2/multi/hc/avg":       "[1-15:3fe0000000000000 6-15:3fe0000000000000 0-21:3fe0000000000000] 3fe5fc44515e8187 3febc43a7ed0d477",
	"undirected-h2/w2/multi/hc/min":       "[1-15:3fe0000000000000 1-9:3fe0000000000000 0-21:3fe0000000000000] 3fdf65749866798d 3fea1060756cc824",
	"undirected-h2/w2/multi/hc/max":       "[0-21:3fe0000000000000 14-21:3fe0000000000000 6-21:3fe0000000000000] 3fec6f8d5578f085 3fef8451f7011130",
	"undirected-h2/w2/multi/eigen/avg":    "[0-9:3fe0000000000000 0-6:3fe0000000000000 14-9:3fe0000000000000] 3fe5fc44515e8187 3fe6caedb7584e13",
	"undirected-h2/w2/multi/eigen/min":    "[0-9:3fe0000000000000 0-6:3fe0000000000000 14-9:3fe0000000000000] 3fdf65749866798d 3fe2408cc9fdf0ee",
	"undirected-h2/w2/multi/eigen/max":    "[0-9:3fe0000000000000 0-6:3fe0000000000000 14-9:3fe0000000000000] 3fec6f8d5578f085 3fec0bbe1633335c",
	"undirected-h2/w2/total":              "[0-12:3fc70a3d70a3d70a 0-21:3fdae147ae147ae1 14-12:3fbeb851eb851eb8 14-21:3fceb851eb851ea2 17-12:3fceb851eb851eb8] 3fe9afc049215856 3fedb18af7da29fd",
}
