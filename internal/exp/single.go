package exp

import (
	"context"

	"fmt"

	"repro/internal/candidates"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/gen"
	"repro/internal/rng"
	"repro/internal/ugraph"
)

func init() {
	register("table4", table4)
	register("table5", table5)
	register("table9", table9)
	register("table10", table10)
	register("table12", func(ctx context.Context, p Params) (Table, error) { return varyK(ctx, p, "table12", "lastfm") })
	register("table13", func(ctx context.Context, p Params) (Table, error) { return varyK(ctx, p, "table13", "dblp") })
	register("table14", func(ctx context.Context, p Params) (Table, error) { return varyZeta(ctx, p, "table14", "astopo") })
	register("table15", func(ctx context.Context, p Params) (Table, error) { return varyZeta(ctx, p, "table15", "twitter") })
	register("table16", table16)
	register("table17", func(ctx context.Context, p Params) (Table, error) { return varyR(ctx, p, "table17", "lastfm") })
	register("table18", func(ctx context.Context, p Params) (Table, error) { return varyR(ctx, p, "table18", "dblp") })
	register("table19", table19)
	register("table20", table20)
	register("table21", table21)
	register("table22", table22)
}

// baseOpt returns the harness defaults: the paper's parameters (§8.1) with
// sizes scaled alongside the graphs.
func baseOpt(p Params, stream int64) core.Options {
	opt := core.Options{
		K: 10, Zeta: 0.5, R: 20, L: 15, H: 3,
		Z: 200, Sampler: "rss", Seed: p.Seed + stream,
		Workers: p.Workers,
	}
	if p.Quick {
		opt.K, opt.R, opt.L, opt.Z = 5, 12, 8, 100
	}
	return opt
}

// methodAgg accumulates per-method averages over a query set.
type methodAgg struct {
	gain, elim, sel, alloc float64
	n                      int
}

func (a *methodAgg) add(sol core.Solution, allocMB float64) {
	a.gain += sol.Gain
	a.elim += float64(sol.ElimTime.Microseconds()) / 1000
	a.sel += float64(sol.SelectTime.Microseconds()) / 1000
	a.alloc += allocMB
	a.n++
}

func (a *methodAgg) avgGain() float64  { return safeDiv(a.gain, a.n) }
func (a *methodAgg) avgElim() float64  { return safeDiv(a.elim, a.n) }
func (a *methodAgg) avgSel() float64   { return safeDiv(a.sel, a.n) }
func (a *methodAgg) avgTotal() float64 { return a.avgElim() + a.avgSel() }
func (a *methodAgg) avgAlloc() float64 { return safeDiv(a.alloc, a.n) }

func safeDiv(x float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return x / float64(n)
}

// runMethods solves every query with every method and aggregates.
func runMethods(ctx context.Context, g *ugraph.Graph, queries []datasets.Query, methods []core.Method, opt core.Options) (map[core.Method]*methodAgg, error) {
	out := make(map[core.Method]*methodAgg, len(methods))
	for _, m := range methods {
		out[m] = &methodAgg{}
	}
	for qi, q := range queries {
		for _, m := range methods {
			qopt := opt
			qopt.Seed = opt.Seed + int64(qi)*131
			var sol core.Solution
			var err error
			_, alloc := measured(func() {
				sol, err = core.Solve(ctx, g.Freeze(), q.S, q.T, m, qopt)
			})
			if err != nil {
				return nil, fmt.Errorf("%s on query %d: %w", m, qi, err)
			}
			out[m].add(sol, alloc)
		}
	}
	return out, nil
}

var methodLabel = map[core.Method]string{
	core.MethodIndividualTopK: "Individual Top-k",
	core.MethodHillClimbing:   "Hill Climbing",
	core.MethodDegree:         "Centrality (degree)",
	core.MethodBetweenness:    "Centrality (betweenness)",
	core.MethodEigen:          "Eigenvalue-based",
	core.MethodMRP:            "Most Reliable Path",
	core.MethodIP:             "Individual Path Inclusion",
	core.MethodBE:             "Batch-edge Selection",
	core.MethodExact:          "Exact Solution",
}

// table4: Table 4 — all methods WITHOUT search space elimination (full
// missing-edge candidate set within h hops). Kept deliberately tiny: this
// is the configuration the paper reports as infeasible at scale.
func table4(ctx context.Context, p Params) (Table, error) {
	small := p
	small.Scale = minF(p.Scale, 0.03)
	g, err := loadDS("lastfm", small)
	if err != nil {
		return Table{}, err
	}
	queries := datasets.Queries(g, small.Queries, 3, 5, small.Seed)
	opt := baseOpt(small, 4)
	opt.NoElimination = true
	opt.H = 2
	opt.K = 5
	opt.Z = 150
	methods := []core.Method{
		core.MethodIndividualTopK, core.MethodHillClimbing, core.MethodDegree,
		core.MethodBetweenness, core.MethodEigen, core.MethodMRP,
		core.MethodIP, core.MethodBE,
	}
	res, err := runMethods(ctx, g, queries, methods, opt)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:     "table4",
		Title:  "Reliability gain and running time WITHOUT search space elimination (lastfm-like)",
		Header: []string{"Method", "ReliabilityGain", "RunningTime(ms)"},
		Notes:  fmt.Sprintf("n=%d m=%d, k=%d ζ=%.1f h=%d, %d queries; paper: Table 4", g.N(), g.M(), opt.K, opt.Zeta, opt.H, len(queries)),
	}
	for _, m := range methods {
		t.Rows = append(t.Rows, []string{methodLabel[m], f3(res[m].avgGain()), ms2(res[m].avgTotal())})
	}
	return t, nil
}

// table5: Table 5 — the same competition WITH search space elimination.
func table5(ctx context.Context, p Params) (Table, error) {
	small := p
	small.Scale = minF(p.Scale, 0.03)
	g, err := loadDS("lastfm", small)
	if err != nil {
		return Table{}, err
	}
	queries := datasets.Queries(g, small.Queries, 3, 5, small.Seed)
	opt := baseOpt(small, 5)
	opt.K = 5
	opt.Z = 150
	opt.H = 2
	methods := []core.Method{
		core.MethodIndividualTopK, core.MethodHillClimbing, core.MethodDegree,
		core.MethodBetweenness, core.MethodEigen, core.MethodMRP,
		core.MethodIP, core.MethodBE,
	}
	res, err := runMethods(ctx, g, queries, methods, opt)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:     "table5",
		Title:  "Reliability gain and running time AFTER search space elimination (lastfm-like)",
		Header: []string{"Method", "ReliabilityGain", "SelectTime(ms)", "ElimTime(ms)"},
		Notes:  fmt.Sprintf("n=%d m=%d, k=%d ζ=%.1f r=%d l=%d, %d queries; paper: Table 5", g.N(), g.M(), opt.K, opt.Zeta, opt.R, opt.L, len(queries)),
	}
	for _, m := range methods {
		t.Rows = append(t.Rows, []string{methodLabel[m], f3(res[m].avgGain()), ms2(res[m].avgSel()), ms2(res[m].avgElim())})
	}
	return t, nil
}

var realDatasets = []string{"lastfm", "astopo", "dblp", "twitter"}
var syntheticDatasets = []string{
	"random1", "random2", "regular1", "regular2",
	"smallworld1", "smallworld2", "scalefree1", "scalefree2",
}

// table9: Table 9 — HC/MRP/IP/BE on the four real-like datasets with
// default parameters: gain, time, memory.
func table9(ctx context.Context, p Params) (Table, error) {
	return datasetSweep(ctx, p, "table9", realDatasets,
		"Single-source-target reliability maximization on real-like datasets")
}

// table10: Table 10 — the same on the eight synthetic datasets.
func table10(ctx context.Context, p Params) (Table, error) {
	return datasetSweep(ctx, p, "table10", syntheticDatasets,
		"Single-source-target reliability maximization on synthetic datasets")
}

func datasetSweep(ctx context.Context, p Params, id string, names []string, title string) (Table, error) {
	methods := []core.Method{core.MethodHillClimbing, core.MethodMRP, core.MethodIP, core.MethodBE}
	t := Table{
		ID:     id,
		Title:  title,
		Header: []string{"Dataset", "Gain(HC)", "Gain(MRP)", "Gain(IP)", "Gain(BE)", "Time(HC)", "Time(MRP)", "Time(IP)", "Time(BE)", "Alloc(HC)", "Alloc(MRP)", "Alloc(IP)", "Alloc(BE)"},
		Notes:  "k=10(scaled) ζ=0.5; times in ms, alloc in MB; paper: Tables 9-10",
	}
	for _, name := range names {
		g, err := loadDS(name, p)
		if err != nil {
			return Table{}, err
		}
		queries := datasets.Queries(g, p.Queries, 3, 5, p.Seed)
		if len(queries) == 0 {
			return Table{}, fmt.Errorf("%s: no valid queries", name)
		}
		opt := baseOpt(p, 9)
		res, err := runMethods(ctx, g, queries, methods, opt)
		if err != nil {
			return Table{}, err
		}
		row := []string{name}
		for _, m := range methods {
			row = append(row, f3(res[m].avgGain()))
		}
		for _, m := range methods {
			row = append(row, ms2(res[m].avgTotal()))
		}
		for _, m := range methods {
			row = append(row, mb(res[m].avgAlloc()))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// varyK: Tables 12-13 — sweep the budget k.
func varyK(ctx context.Context, p Params, id, dataset string) (Table, error) {
	g, err := loadDS(dataset, p)
	if err != nil {
		return Table{}, err
	}
	queries := datasets.Queries(g, p.Queries, 3, 5, p.Seed)
	methods := []core.Method{core.MethodHillClimbing, core.MethodMRP, core.MethodIP, core.MethodBE}
	ks := []int{3, 5, 8, 10, 15, 20, 30, 50}
	if p.Quick {
		ks = []int{3, 10, 20}
	}
	t := Table{
		ID:     id,
		Title:  fmt.Sprintf("Varying budget k on %s-like", dataset),
		Header: []string{"k", "Gain(HC)", "Gain(MRP)", "Gain(IP)", "Gain(BE)", "Time(HC)", "Time(MRP)", "Time(IP)", "Time(BE)"},
		Notes:  "ζ=0.5; times in ms; paper: Tables 12-13",
	}
	for _, k := range ks {
		opt := baseOpt(p, 12)
		opt.K = k
		res, err := runMethods(ctx, g, queries, methods, opt)
		if err != nil {
			return Table{}, err
		}
		row := []string{fmt.Sprint(k)}
		for _, m := range methods {
			row = append(row, f3(res[m].avgGain()))
		}
		for _, m := range methods {
			row = append(row, ms2(res[m].avgTotal()))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// varyZeta: Tables 14-15 — sweep the new-edge probability ζ.
func varyZeta(ctx context.Context, p Params, id, dataset string) (Table, error) {
	g, err := loadDS(dataset, p)
	if err != nil {
		return Table{}, err
	}
	queries := datasets.Queries(g, p.Queries, 3, 5, p.Seed)
	methods := []core.Method{core.MethodHillClimbing, core.MethodMRP, core.MethodIP, core.MethodBE}
	zetas := []float64{0.3, 0.4, 0.5, 0.6, 0.7, 1.0}
	if p.Quick {
		zetas = []float64{0.3, 0.5, 1.0}
	}
	t := Table{
		ID:     id,
		Title:  fmt.Sprintf("Varying probability ζ on new edges, %s-like", dataset),
		Header: []string{"zeta", "Gain(HC)", "Gain(MRP)", "Gain(IP)", "Gain(BE)", "Time(HC)", "Time(MRP)", "Time(IP)", "Time(BE)"},
		Notes:  "k=10(scaled); times in ms; paper: Tables 14-15",
	}
	for _, z := range zetas {
		opt := baseOpt(p, 14)
		opt.Zeta = z
		res, err := runMethods(ctx, g, queries, methods, opt)
		if err != nil {
			return Table{}, err
		}
		row := []string{f2(z)}
		for _, m := range methods {
			row = append(row, f3(res[m].avgGain()))
		}
		for _, m := range methods {
			row = append(row, ms2(res[m].avgTotal()))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// table16: Table 16 — per-edge probabilities on new edges instead of a
// fixed ζ: uniform ranges and a normal model.
func table16(ctx context.Context, p Params) (Table, error) {
	g, err := loadDS("twitter", p)
	if err != nil {
		return Table{}, err
	}
	queries := datasets.Queries(g, p.Queries, 3, 5, p.Seed)
	methods := []core.Method{core.MethodHillClimbing, core.MethodMRP, core.MethodIP, core.MethodBE}
	models := []struct {
		name   string
		assign func(r interface{ Float64() float64 }, _ interface{ NormFloat64() float64 }) float64
	}{
		{"rand(0,1)", func(r interface{ Float64() float64 }, _ interface{ NormFloat64() float64 }) float64 {
			return gen.ClampProb(r.Float64())
		}},
		{"rand(0.2,0.6)", func(r interface{ Float64() float64 }, _ interface{ NormFloat64() float64 }) float64 {
			return 0.2 + 0.4*r.Float64()
		}},
		{"rand(0.4,0.8)", func(r interface{ Float64() float64 }, _ interface{ NormFloat64() float64 }) float64 {
			return 0.4 + 0.4*r.Float64()
		}},
		{"N(0.5,0.038)", func(_ interface{ Float64() float64 }, rn interface{ NormFloat64() float64 }) float64 {
			return gen.ClampProb(0.5 + 0.038*rn.NormFloat64())
		}},
	}
	t := Table{
		ID:     "table16",
		Title:  "Per-edge probabilities on new edges (twitter-like)",
		Header: []string{"Model", "Gain(HC)", "Gain(MRP)", "Gain(IP)", "Gain(BE)", "Time(BE)"},
		Notes:  "k=10(scaled); BE works unchanged with per-edge candidate probabilities; paper: Table 16",
	}
	for mi, model := range models {
		opt := baseOpt(p, 16)
		res := make(map[core.Method]*methodAgg)
		for _, m := range methods {
			res[m] = &methodAgg{}
		}
		for qi, q := range queries {
			// Build the candidate set once per query, then reassign
			// probabilities per model so all methods see the same
			// candidates.
			qopt := opt
			qopt.Seed = opt.Seed + int64(qi)*197
			cands, err := candidateEdgesFor(ctx, g, q, qopt)
			if err != nil {
				return Table{}, err
			}
			r := rng.Split(qopt.Seed, int64(1000+mi))
			for i := range cands {
				cands[i].P = model.assign(r, r)
			}
			qopt.Candidates = cands
			for _, m := range methods {
				var sol core.Solution
				var err error
				_, alloc := measured(func() { sol, err = core.Solve(ctx, g.Freeze(), q.S, q.T, m, qopt) })
				if err != nil {
					return Table{}, err
				}
				res[m].add(sol, alloc)
			}
		}
		row := []string{model.name}
		for _, m := range methods {
			row = append(row, f3(res[m].avgGain()))
		}
		row = append(row, ms2(res[core.MethodBE].avgTotal()))
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// varyR: Tables 17-18 — sweep the elimination width r, splitting Time1
// (elimination) from Time2 (selection).
func varyR(ctx context.Context, p Params, id, dataset string) (Table, error) {
	g, err := loadDS(dataset, p)
	if err != nil {
		return Table{}, err
	}
	queries := datasets.Queries(g, p.Queries, 3, 5, p.Seed)
	methods := []core.Method{core.MethodHillClimbing, core.MethodMRP, core.MethodIP, core.MethodBE}
	rs := []int{10, 20, 30, 50, 80}
	if p.Quick {
		rs = []int{10, 30}
	}
	t := Table{
		ID:     id,
		Title:  fmt.Sprintf("Varying #candidate nodes r on %s-like", dataset),
		Header: []string{"r", "Gain(HC)", "Gain(MRP)", "Gain(IP)", "Gain(BE)", "Time1(ms)", "Time2(HC)", "Time2(MRP)", "Time2(IP)", "Time2(BE)"},
		Notes:  "Time1 = search space elimination, Time2 = top-k selection; paper: Tables 17-18 (r scaled with graph)",
	}
	for _, r := range rs {
		opt := baseOpt(p, 17)
		opt.R = r
		res, err := runMethods(ctx, g, queries, methods, opt)
		if err != nil {
			return Table{}, err
		}
		row := []string{fmt.Sprint(r)}
		for _, m := range methods {
			row = append(row, f3(res[m].avgGain()))
		}
		row = append(row, ms2(res[core.MethodBE].avgElim()))
		for _, m := range methods {
			row = append(row, ms2(res[m].avgSel()))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// table19: Table 19 — sweep the query distance d.
func table19(ctx context.Context, p Params) (Table, error) {
	g, err := loadDS("astopo", p)
	if err != nil {
		return Table{}, err
	}
	methods := []core.Method{core.MethodHillClimbing, core.MethodBE}
	ds := []int{2, 3, 4, 5, 6}
	if p.Quick {
		ds = []int{2, 4}
	}
	t := Table{
		ID:     "table19",
		Title:  "Varying distance d between query nodes (astopo-like)",
		Header: []string{"d", "Gain(HC)", "Gain(BE)", "Time(HC)", "Time(BE)"},
		Notes:  "k=10(scaled) ζ=0.5; paper: Table 19",
	}
	for _, d := range ds {
		queries := datasets.QueriesAtDistance(g, p.Queries, d, p.Seed+int64(d))
		if len(queries) == 0 {
			t.Rows = append(t.Rows, []string{fmt.Sprint(d), "-", "-", "-", "-"})
			continue
		}
		opt := baseOpt(p, 19)
		res, err := runMethods(ctx, g, queries, methods, opt)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(d),
			f3(res[core.MethodHillClimbing].avgGain()), f3(res[core.MethodBE].avgGain()),
			ms2(res[core.MethodHillClimbing].avgTotal()), ms2(res[core.MethodBE].avgTotal()),
		})
	}
	return t, nil
}

// table20: Table 20 — sweep the distance constraint h for new edges.
func table20(ctx context.Context, p Params) (Table, error) {
	g, err := loadDS("twitter", p)
	if err != nil {
		return Table{}, err
	}
	queries := datasets.Queries(g, p.Queries, 3, 5, p.Seed)
	methods := []core.Method{core.MethodHillClimbing, core.MethodBE}
	hs := []int{2, 3, 4, 5}
	if p.Quick {
		hs = []int{2, 4}
	}
	t := Table{
		ID:     "table20",
		Title:  "Varying distance constraint h for new edges (twitter-like)",
		Header: []string{"h", "Gain(HC)", "Gain(BE)", "Time(HC)", "Time(BE)"},
		Notes:  "k=10(scaled) ζ=0.5; paper: Table 20",
	}
	for _, h := range hs {
		opt := baseOpt(p, 20)
		opt.H = h
		res, err := runMethods(ctx, g, queries, methods, opt)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(h),
			f3(res[core.MethodHillClimbing].avgGain()), f3(res[core.MethodBE].avgGain()),
			ms2(res[core.MethodHillClimbing].avgTotal()), ms2(res[core.MethodBE].avgTotal()),
		})
	}
	return t, nil
}

// table21: Table 21 — sweep the number of most reliable paths l.
func table21(ctx context.Context, p Params) (Table, error) {
	g, err := loadDS("twitter", p)
	if err != nil {
		return Table{}, err
	}
	queries := datasets.Queries(g, p.Queries, 3, 5, p.Seed)
	methods := []core.Method{core.MethodIP, core.MethodBE}
	ls := []int{5, 10, 20, 30, 50}
	if p.Quick {
		ls = []int{5, 20}
	}
	t := Table{
		ID:     "table21",
		Title:  "Varying #most-reliable paths l (twitter-like)",
		Header: []string{"l", "Gain(IP)", "Gain(BE)", "Time(IP)", "Time(BE)"},
		Notes:  "k=10(scaled) ζ=0.5; paper: Table 21",
	}
	for _, l := range ls {
		opt := baseOpt(p, 21)
		opt.L = l
		res, err := runMethods(ctx, g, queries, methods, opt)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(l),
			f3(res[core.MethodIP].avgGain()), f3(res[core.MethodBE].avgGain()),
			ms2(res[core.MethodIP].avgTotal()), ms2(res[core.MethodBE].avgTotal()),
		})
	}
	return t, nil
}

// table22: Table 22 — scalability of BE over node-sampled subgraphs.
func table22(ctx context.Context, p Params) (Table, error) {
	big := p
	big.Scale = p.Scale * 2
	g, err := loadDS("twitter", big)
	if err != nil {
		return Table{}, err
	}
	fractions := []float64{1.0 / 6, 2.0 / 6, 3.0 / 6, 4.0 / 6, 5.0 / 6, 1.0}
	if p.Quick {
		fractions = []float64{0.5, 1.0}
	}
	t := Table{
		ID:     "table22",
		Title:  "Scalability of BE over node-sampled subgraphs (twitter-like)",
		Header: []string{"Nodes", "Gain(BE)", "Time(ms)", "Alloc(MB)"},
		Notes:  "paper: Table 22 (1M..6M nodes; here scaled)",
	}
	for _, frac := range fractions {
		n := int(frac * float64(g.N()))
		sub := datasets.NodeSample(g, n, p.Seed)
		queries := datasets.Queries(sub, p.Queries, 3, 5, p.Seed)
		if len(queries) == 0 {
			t.Rows = append(t.Rows, []string{fmt.Sprint(n), "-", "-", "-"})
			continue
		}
		opt := baseOpt(p, 22)
		res, err := runMethods(ctx, sub, queries, []core.Method{core.MethodBE}, opt)
		if err != nil {
			return Table{}, err
		}
		agg := res[core.MethodBE]
		t.Rows = append(t.Rows, []string{fmt.Sprint(n), f3(agg.avgGain()), ms2(agg.avgTotal()), mb(agg.avgAlloc())})
	}
	return t, nil
}

func ms2(msVal float64) string { return fmt.Sprintf("%.1f", msVal) }

// candidateEdgesFor regenerates the eliminated candidate set for a query,
// so experiments that post-process candidate probabilities (Table 16) can
// hand every method the same E+.
func candidateEdgesFor(ctx context.Context, g *ugraph.Graph, q datasets.Query, opt core.Options) ([]ugraph.Edge, error) {
	smp, err := opt.NewSampler(ctx, 1)
	if err != nil {
		return nil, err
	}
	res := candidates.Eliminate(g.Freeze(), q.S, q.T, smp, candidates.Options{R: opt.R, H: opt.H, Zeta: opt.Zeta})
	return res.Edges, nil
}
