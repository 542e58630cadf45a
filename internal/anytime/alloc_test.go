//go:build !race

// The race detector makes sync.Pool drop a random share of its Puts (and
// instruments allocations), so the exact allocation count below only holds
// in a normal build.

package anytime

import (
	"context"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/rng"
	"repro/internal/ugraph"
)

// TestWarmShardedRunAllocationIsGraphIndependent: sharded runs lease
// their 16 samplers from the sampling package's warm pool, so once warm a
// run allocates the same bytes on a graph and on one four times larger —
// no per-call graph-sized scratch. GC is off so the pool keeps its
// samplers and TotalAlloc counts exactly this run's allocations; two
// forced collections first empty the pools of samplers earlier tests left
// behind, which the warm-up would not have sized to the larger graph.
func TestWarmShardedRunAllocationIsGraphIndependent(t *testing.T) {
	// One P: sync.Pool keeps a per-P private slot, and a test goroutine
	// migrating between Ps would miss the sampler parked there.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	runtime.GC()
	graph := func(n int) *ugraph.CSR {
		r := rng.New(int64(n))
		g := ugraph.New(n, true)
		for i := 0; i < 4*n; i++ {
			g.AddEdge(ugraph.NodeID(r.Intn(n)), ugraph.NodeID(r.Intn(n)), 0.05+0.3*r.Float64()) //nolint:errcheck // dups/self-loops rejected by design
		}
		return g.Freeze()
	}
	small, large := graph(200), graph(800)
	for _, kind := range allKinds {
		cfg := Config{Sampler: kind, MaxZ: 2 * shardCount * BlockSize, Seed: 3, Workers: 1}
		// The least of three runs: TotalAlloc also counts the odd
		// allocation of a runtime or test-harness goroutine.
		allocated := func(c *ugraph.CSR) uint64 {
			least := uint64(math.MaxUint64)
			for i := 0; i < 3; i++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if _, err := Run(context.Background(), c, 0, ugraph.NodeID(c.N()-1), cfg); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				least = min(least, after.TotalAlloc-before.TotalAlloc)
			}
			return least
		}
		// Warm-up: the pooled samplers' scratch grows here. A BFS queue
		// grows to the largest frontier its sampler has met, and the pool
		// need not hand a sampler back to the shard it served last, so
		// every sampler must first meet every large-graph shard.
		allocated(large)
		allocated(large)
		if s, l := allocated(small), allocated(large); s != l {
			t.Errorf("%s: warm sharded run allocated %d B on n=%d but %d B on n=%d", kind, s, small.N(), l, large.N())
		}
	}
}
