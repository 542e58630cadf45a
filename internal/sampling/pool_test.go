package sampling

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/rng"
	"repro/internal/ugraph"
)

// TestPoolReuseMatchesFreshShards: samplers leased from a kind's warm pool
// must never carry state into a result. Each kind's pool is first dirtied
// by estimates on a larger graph and on a WithEdges overlay; then every
// ParallelSampler entry point must equal a shard-by-shard replay on fresh
// NewSerial samplers at the same shard seeds and budgets.
func TestPoolReuseMatchesFreshShards(t *testing.T) {
	big := benchGraph(1024, true).Freeze()
	c := benchGraph(256, true).Freeze()
	overlay := c.WithEdges([]ugraph.Edge{{U: 0, V: 255, P: 0.4}, {U: 3, V: 17, P: 0.9}})
	s, tt := ugraph.NodeID(0), ugraph.NodeID(200)
	queries := []PairQuery{{S: 0, T: 200}, {S: 5, T: 5}, {S: 9, T: 130}}
	const z, seed = 300, 11
	// The i-th call of a fresh ParallelSampler runs on SplitSeed(seed, i).
	callSeed := rng.SplitSeed(seed, 1)
	for _, kind := range []string{"mc", "rss", "lazy", "mcvec"} {
		dirty, err := NewParallel(kind, 2*z+7, 99, 4)
		if err != nil {
			t.Fatal(err)
		}
		dirty.ReliabilityCSR(big, 1, 900)
		dirty.ReliabilityFromCSR(overlay, 3)
		dirty.EstimateMany(big, []PairQuery{{S: 2, T: 700}, {S: 4, T: 800}})
		if _, err := EstimateManySerial(context.Background(), kind, overlay, queries, z+1, 5, 4); err != nil {
			t.Fatal(err)
		}

		fresh := func(budget int, seed int64) CSRSampler {
			smp, err := NewSerial(kind, budget, seed)
			if err != nil {
				t.Fatal(err)
			}
			return smp
		}
		newPS := func() *ParallelSampler {
			ps, err := NewParallel(kind, z, seed, 4)
			if err != nil {
				t.Fatal(err)
			}
			return ps
		}
		budgets := newPS().shardBudgets(z)

		est := make([]float64, len(budgets))
		for i, b := range budgets {
			est[i] = fresh(b, rng.SplitSeed(callSeed, int64(i))).ReliabilityCSR(c, s, tt)
		}
		if want, got := mergeScalar(est, budgets), newPS().ReliabilityCSR(c, s, tt); got != want {
			t.Fatalf("%s ReliabilityCSR after pool reuse: %v, fresh replay %v", kind, got, want)
		}

		for _, forward := range []bool{true, false} {
			vecs := make([][]float64, len(budgets))
			for i, b := range budgets {
				vecs[i] = shardVector(fresh(b, rng.SplitSeed(callSeed, int64(i))), c, s, forward)
			}
			want := mergeVectors(vecs, budgets, c.N())
			got := shardVector(newPS(), c, s, forward)
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("%s vector (forward=%v) after pool reuse: entry %d = %v, fresh replay %v", kind, forward, v, got[v], want[v])
				}
			}
		}

		many := newPS().shardBudgetsFor(z, len(queries))
		got := newPS().EstimateMany(c, queries)
		for qi, q := range queries {
			want := 1.0
			if q.S != q.T {
				est := make([]float64, len(many))
				for i, b := range many {
					est[i] = fresh(b, rng.SplitSeed(rng.SplitSeed(callSeed, int64(qi)), int64(i))).ReliabilityCSR(c, q.S, q.T)
				}
				want = mergeScalar(est, many)
			}
			if got[qi] != want {
				t.Fatalf("%s EstimateMany[%d] after pool reuse: %v, fresh replay %v", kind, qi, got[qi], want)
			}
		}
	}
	if _, err := Lease("bogus"); err == nil {
		t.Fatal("Lease accepted an unknown kind")
	}
}

// TestFanOut: every index runs exactly once at any worker count, and a
// cancelled context skips the work.
func TestFanOut(t *testing.T) {
	const n = 100
	for _, workers := range []int{-1, 0, 1, 3, 2 * n} {
		var hits [n]atomic.Int32
		FanOut(context.Background(), workers, n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if h := hits[i].Load(); h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		FanOut(ctx, workers, n, func(int) { ran.Add(1) })
		if r := ran.Load(); r != 0 {
			t.Fatalf("workers=%d: cancelled fan-out ran %d items", workers, r)
		}
	}
}
