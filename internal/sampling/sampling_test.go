package sampling

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/ugraph"
)

// randomSmallGraph builds a connected-ish random uncertain graph small
// enough for exact reliability.
func randomSmallGraph(r *rand.Rand, directed bool) *ugraph.Graph {
	n := 5 + r.Intn(3)
	g := ugraph.New(n, directed)
	for attempts := 0; attempts < 14 && g.M() < 12; attempts++ {
		u := ugraph.NodeID(r.Intn(n))
		v := ugraph.NodeID(r.Intn(n))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		g.MustAddEdge(u, v, 0.2+0.6*r.Float64())
	}
	return g
}

func TestMonteCarloMatchesExact(t *testing.T) {
	r := rng.New(101)
	mc := NewMonteCarlo(40000, 1)
	for trial := 0; trial < 8; trial++ {
		g := randomSmallGraph(r, trial%2 == 0)
		s, tt := ugraph.NodeID(0), ugraph.NodeID(g.N()-1)
		exact, err := g.ExactReliability(s, tt)
		if err != nil {
			t.Fatal(err)
		}
		got := mc.Reliability(g, s, tt)
		if math.Abs(got-exact) > 0.015 {
			t.Errorf("trial %d: MC=%v exact=%v", trial, got, exact)
		}
	}
}

func TestRSSMatchesExact(t *testing.T) {
	r := rng.New(202)
	rs := NewRSS(8000, 2)
	for trial := 0; trial < 8; trial++ {
		g := randomSmallGraph(r, trial%2 == 1)
		s, tt := ugraph.NodeID(0), ugraph.NodeID(g.N()-1)
		exact, err := g.ExactReliability(s, tt)
		if err != nil {
			t.Fatal(err)
		}
		got := rs.Reliability(g, s, tt)
		if math.Abs(got-exact) > 0.015 {
			t.Errorf("trial %d: RSS=%v exact=%v", trial, got, exact)
		}
	}
}

func TestSourceEqualsTarget(t *testing.T) {
	g := ugraph.New(3, true)
	g.MustAddEdge(0, 1, 0.5)
	if got := NewMonteCarlo(10, 1).Reliability(g, 1, 1); got != 1 {
		t.Fatalf("MC R(v,v) = %v", got)
	}
	if got := NewRSS(10, 1).Reliability(g, 1, 1); got != 1 {
		t.Fatalf("RSS R(v,v) = %v", got)
	}
}

func TestCertainPaths(t *testing.T) {
	// All edges probability 1 → reliability exactly 1, and RSS should
	// detect certainty without any sampling noise.
	g := ugraph.New(4, true)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 3, 1)
	if got := NewRSS(10, 3).Reliability(g, 0, 3); got != 1 {
		t.Fatalf("certain path RSS = %v, want exactly 1", got)
	}
	if got := NewMonteCarlo(10, 3).Reliability(g, 0, 3); got != 1 {
		t.Fatalf("certain path MC = %v, want exactly 1", got)
	}
	// Disconnected target → exactly 0.
	if got := NewRSS(10, 3).Reliability(g, 3, 0); got != 0 {
		t.Fatalf("unreachable RSS = %v, want exactly 0", got)
	}
}

func TestReliabilityFromDirectedPath(t *testing.T) {
	// 0 →(0.8) 1 →(0.5) 2; exact vector from 0 is [1, 0.8, 0.4].
	g := ugraph.New(3, true)
	g.MustAddEdge(0, 1, 0.8)
	g.MustAddEdge(1, 2, 0.5)
	for _, s := range []Sampler{NewMonteCarlo(60000, 4), NewRSS(20000, 4)} {
		vec := s.ReliabilityFrom(g, 0)
		want := []float64{1, 0.8, 0.4}
		for i := range want {
			if math.Abs(vec[i]-want[i]) > 0.015 {
				t.Errorf("%s: vec[%d] = %v, want %v", s.Name(), i, vec[i], want[i])
			}
		}
	}
}

func TestReliabilityToDirectedPath(t *testing.T) {
	// 0 →(0.8) 1 →(0.5) 2; reliability to 2 is [0.4, 0.5, 1].
	g := ugraph.New(3, true)
	g.MustAddEdge(0, 1, 0.8)
	g.MustAddEdge(1, 2, 0.5)
	for _, s := range []Sampler{NewMonteCarlo(60000, 5), NewRSS(20000, 5)} {
		vec := s.ReliabilityTo(g, 2)
		want := []float64{0.4, 0.5, 1}
		for i := range want {
			if math.Abs(vec[i]-want[i]) > 0.015 {
				t.Errorf("%s: vec[%d] = %v, want %v", s.Name(), i, vec[i], want[i])
			}
		}
	}
}

func TestUndirectedVectorSymmetry(t *testing.T) {
	// In an undirected graph, ReliabilityFrom and ReliabilityTo estimate
	// the same quantity.
	g := ugraph.New(4, false)
	g.MustAddEdge(0, 1, 0.7)
	g.MustAddEdge(1, 2, 0.6)
	g.MustAddEdge(2, 3, 0.5)
	g.MustAddEdge(0, 2, 0.4)
	mc := NewMonteCarlo(40000, 6)
	from := mc.ReliabilityFrom(g, 0)
	to := mc.ReliabilityTo(g, 0)
	for i := range from {
		if math.Abs(from[i]-to[i]) > 0.02 {
			t.Errorf("node %d: from=%v to=%v", i, from[i], to[i])
		}
	}
}

func TestVectorMatchesScalar(t *testing.T) {
	r := rng.New(77)
	g := randomSmallGraph(r, true)
	mc := NewMonteCarlo(40000, 7)
	vec := mc.ReliabilityFrom(g, 0)
	for v := 1; v < g.N(); v++ {
		scalar := mc.Reliability(g, 0, ugraph.NodeID(v))
		if math.Abs(vec[v]-scalar) > 0.02 {
			t.Errorf("node %d: vector=%v scalar=%v", v, vec[v], scalar)
		}
	}
}

// TestRSSVarianceReduction verifies the §5.3 claim: at equal sample size,
// the RSS estimator has lower variance than plain MC.
func TestRSSVarianceReduction(t *testing.T) {
	// A layered graph with many mid-probability edges: high MC variance.
	r := rng.New(88)
	g := ugraph.New(24, true)
	for layer := 0; layer < 5; layer++ {
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				u := ugraph.NodeID(layer*4 + i)
				v := ugraph.NodeID((layer+1)*4 + j)
				if r.Float64() < 0.7 {
					g.MustAddEdge(u, v, 0.15+0.5*r.Float64())
				}
			}
		}
	}
	const z, reps = 300, 60
	var mcEst, rssEst []float64
	for i := 0; i < reps; i++ {
		mcEst = append(mcEst, NewMonteCarlo(z, int64(1000+i)).Reliability(g, 0, 23))
		rssEst = append(rssEst, NewRSS(z, int64(2000+i)).Reliability(g, 0, 23))
	}
	vMC, vRSS := stats.Variance(mcEst), stats.Variance(rssEst)
	if vRSS > vMC {
		t.Errorf("RSS variance %v not below MC variance %v", vRSS, vMC)
	}
	// Both must agree on the mean.
	if math.Abs(stats.Mean(mcEst)-stats.Mean(rssEst)) > 0.05 {
		t.Errorf("estimator means diverge: MC %v RSS %v", stats.Mean(mcEst), stats.Mean(rssEst))
	}
}

func TestRSSUnbiasedOnUndirected(t *testing.T) {
	r := rng.New(99)
	rs := NewRSS(12000, 9)
	for trial := 0; trial < 5; trial++ {
		g := randomSmallGraph(r, false)
		exact, err := g.ExactReliability(0, ugraph.NodeID(g.N()-1))
		if err != nil {
			t.Fatal(err)
		}
		got := rs.Reliability(g, 0, ugraph.NodeID(g.N()-1))
		if math.Abs(got-exact) > 0.02 {
			t.Errorf("trial %d: RSS=%v exact=%v", trial, got, exact)
		}
	}
}

// completeGraph returns the complete graph on n nodes with every edge at
// probability p (both arc directions when directed).
func completeGraph(n int, p float64, directed bool) *ugraph.Graph {
	g := ugraph.New(n, directed)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v || (!directed && v < u) {
				continue
			}
			g.MustAddEdge(ugraph.NodeID(u), ugraph.NodeID(v), p)
		}
	}
	return g
}

// TestEstimatesWithinUnitInterval sweeps every kind, serial and parallel,
// scalar and vector, over random small graphs and dense near-certain
// complete graphs. The latter are the regression case for stratified sums
// rounding past 1: the RSS strata Σ π_i·R_i used to report reliabilities
// such as 1.0000000000000004 there.
func TestEstimatesWithinUnitInterval(t *testing.T) {
	type query struct {
		name  string
		g     *ugraph.Graph
		s, t  ugraph.NodeID
		seeds int64
	}
	var queries []query
	r := rng.New(111)
	for trial := 0; trial < 20; trial++ {
		g := randomSmallGraph(r, trial%2 == 0)
		s, tt := ugraph.NodeID(r.Intn(g.N())), ugraph.NodeID(r.Intn(g.N()))
		queries = append(queries, query{fmt.Sprintf("random trial %d", trial), g, s, tt, 1})
	}
	for _, directed := range []bool{false, true} {
		for _, n := range []int{4, 6, 8, 10} {
			for _, p := range []float64{0.9, 0.95, 0.99} {
				name := fmt.Sprintf("K%d p=%v directed=%v", n, p, directed)
				queries = append(queries, query{name, completeGraph(n, p, directed), 0, ugraph.NodeID(n - 1), 5})
			}
		}
	}
	check := func(where string, r float64) {
		t.Helper()
		if !(r >= 0 && r <= 1) {
			t.Fatalf("%s: estimate %v outside [0, 1]", where, r)
		}
	}
	for _, q := range queries {
		for _, kind := range []string{"mc", "rss", "lazy", "mcvec"} {
			for _, z := range []int{100, 500} {
				for seed := int64(1); seed <= q.seeds; seed++ {
					serial, err := NewSerial(kind, z, seed)
					if err != nil {
						t.Fatal(err)
					}
					par, err := NewParallel(kind, z, seed, 2)
					if err != nil {
						t.Fatal(err)
					}
					for mode, smp := range map[string]Sampler{"serial": serial, "parallel": par} {
						where := func(what string) string {
							return fmt.Sprintf("%s: %s/%s/%s z=%d seed=%d", q.name, kind, mode, what, z, seed)
						}
						check(where("scalar"), smp.Reliability(q.g, q.s, q.t))
						for v, r := range smp.ReliabilityFrom(q.g, q.s) {
							check(where(fmt.Sprintf("from[%d]", v)), r)
						}
						for v, r := range smp.ReliabilityTo(q.g, q.t) {
							check(where(fmt.Sprintf("to[%d]", v)), r)
						}
					}
				}
			}
		}
	}
}

// TestReseedMatchesFresh pins the Reseed contract of the serial samplers:
// after arbitrary prior use (other graphs, other queries, vector and
// multi-source calls, a budget change), Reseed(s) followed by an estimate
// is bit-identical to the same estimate on a fresh New*(z, s) sampler.
func TestReseedMatchesFresh(t *testing.T) {
	r := rng.New(131)
	big := allocGraph(false)
	const z = 300
	for _, kind := range []string{"mc", "rss", "lazy", "mcvec"} {
		used, err := NewSerial(kind, 17, 99)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 6; trial++ {
			g := randomSmallGraph(r, trial%2 == 0)
			s, tt := ugraph.NodeID(0), ugraph.NodeID(g.N()-1)
			// Arbitrary prior use of the reused sampler.
			used.SetSampleSize(17 + 40*trial)
			used.Reliability(big, 0, ugraph.NodeID(big.N()-1))
			used.ReliabilityTo(g, tt)
			if mc, ok := used.(*MonteCarlo); ok {
				mc.MultiSourceReach(big, []ugraph.NodeID{1, 2})
			}
			used.SetSampleSize(z)

			seed := int64(trial*7 - 5)
			fresh, _ := NewSerial(kind, z, seed)
			used.Reseed(seed)
			if a, b := used.Reliability(g, s, tt), fresh.Reliability(g, s, tt); a != b {
				t.Fatalf("%s trial %d: Reseed(%d) estimate %v, fresh sampler %v", kind, trial, seed, a, b)
			}
			fresh, _ = NewSerial(kind, z, seed)
			used.Reseed(seed)
			a, b := used.ReliabilityFrom(g, s), fresh.ReliabilityFrom(g, s)
			for v := range a {
				if a[v] != b[v] {
					t.Fatalf("%s trial %d: Reseed(%d) From[%d] %v, fresh sampler %v", kind, trial, seed, v, a[v], b[v])
				}
			}
		}
	}
}

func TestSetSampleSize(t *testing.T) {
	mc := NewMonteCarlo(100, 1)
	mc.SetSampleSize(250)
	if mc.SampleSize() != 250 {
		t.Fatal("MC SetSampleSize ignored")
	}
	rs := NewRSS(100, 1)
	rs.SetSampleSize(400)
	if rs.SampleSize() != 400 {
		t.Fatal("RSS SetSampleSize ignored")
	}
	rs.SetWidth(0)
	rs.SetThreshold(0) // clamped, must not panic or loop
	g := ugraph.New(3, true)
	g.MustAddEdge(0, 1, 0.5)
	g.MustAddEdge(1, 2, 0.5)
	got := rs.Reliability(g, 0, 2)
	if got < 0 || got > 1 {
		t.Fatalf("clamped RSS estimate %v", got)
	}
}
