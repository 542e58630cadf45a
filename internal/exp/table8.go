package exp

import (
	"context"

	"fmt"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/gen"
	"repro/internal/rng"
	"repro/internal/stats"
)

func init() {
	register("table8", table8)
	register("extbudget", extBudget)
}

// table8: Table 8 — properties of the dataset stand-ins: node/edge counts,
// edge-probability mean ± SD and quartiles, average and longest shortest
// path, clustering coefficient. Lets a reader verify each stand-in matches
// the published regime of its real counterpart.
func table8(ctx context.Context, p Params) (Table, error) {
	t := Table{
		ID:     "table8",
		Title:  "Properties of dataset stand-ins",
		Header: []string{"Dataset", "Nodes", "Edges", "ProbMean", "ProbSD", "Q1", "Q2", "Q3", "Type", "AvgSPL", "LongSPL", "C.Coe"},
		Notes:  "paper: Table 8 (node counts scaled; probability/topology regimes matched)",
	}
	sample := 30
	if p.Quick {
		sample = 10
	}
	for _, name := range datasets.Names() {
		g, err := loadDS(name, p)
		if err != nil {
			return Table{}, err
		}
		probs := gen.EdgeProbabilities(g)
		q1, q2, q3 := stats.Quartiles(probs)
		kind := "Undirected"
		if g.Directed() {
			kind = "Directed"
		}
		r := rng.Split(p.Seed, 808)
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprint(g.N()),
			fmt.Sprint(g.M()),
			f2(stats.Mean(probs)),
			f2(stats.StdDev(probs)),
			f2(q1), f2(q2), f2(q3),
			kind,
			f2(gen.AvgShortestPath(g, sample, r)),
			fmt.Sprint(g.Freeze().Diameter(sample)),
			f2(gen.AvgClustering(g, 10*sample, r)),
		})
	}
	return t, nil
}

// extBudget: the §9 future-work extension — one total probability budget B
// shared across new edges, compared against the fixed-ζ Problem 1 solver
// spending the same total mass (k edges × ζ each).
func extBudget(ctx context.Context, p Params) (Table, error) {
	g, err := loadDS("lastfm", p)
	if err != nil {
		return Table{}, err
	}
	queries := datasets.Queries(g, p.Queries, 3, 5, p.Seed)
	if len(queries) == 0 {
		return Table{}, fmt.Errorf("extbudget: no queries")
	}
	budgets := []float64{0.5, 1.0, 2.0, 3.0}
	if p.Quick {
		budgets = []float64{0.5, 2.0}
	}
	t := Table{
		ID:     "extbudget",
		Title:  "Extension (§9 future work): total probability budget vs fixed per-edge ζ",
		Header: []string{"Budget", "Gain(TotalBudget)", "Gain(BE, same mass)", "EdgesUsed", "Time(ms)"},
		Notes:  "BE comparator uses k = ceil(B/ζ) edges at ζ=0.5, i.e. the same probability mass",
	}
	for _, b := range budgets {
		var gainTB, gainBE, edges, timeMS float64
		for qi, q := range queries {
			opt := baseOpt(p, 90)
			opt.Seed += int64(qi) * 577
			tb, err := core.SolveTotalBudget(ctx, g.Freeze(), q.S, q.T, b, opt)
			if err != nil {
				return Table{}, err
			}
			gainTB += tb.Gain
			edges += float64(len(tb.Edges))
			timeMS += float64(tb.Elapsed.Microseconds()) / 1000
			beOpt := opt
			beOpt.K = int(b/0.5 + 0.999)
			sol, err := core.Solve(ctx, g.Freeze(), q.S, q.T, core.MethodBE, beOpt)
			if err != nil {
				return Table{}, err
			}
			gainBE += sol.Gain
		}
		n := float64(len(queries))
		t.Rows = append(t.Rows, []string{
			f2(b), f3(gainTB / n), f3(gainBE / n), f2(edges / n), ms2(timeMS / n),
		})
	}
	return t, nil
}
