package sampling

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/rng"
	"repro/internal/ugraph"
)

// DefaultShards is the maximum number of deterministic work shards a
// ParallelSampler splits a sample budget into (small budgets use fewer;
// see minShardBudget). The shard structure — not the worker count — fixes
// the randomness: shard i always draws from the stream Split(callSeed, i)
// and the shard estimates are merged in shard order, so the result is
// bit-identical whether one goroutine processes all shards or eight
// goroutines race over them.
const DefaultShards = 16

// Factory constructs a fresh serial Sampler; the budget and seed handed to
// it are placeholders, overwritten per shard via SetSampleSize and Reseed.
// Factories returning a CSRSampler (all built-in ones do) let the pool run
// entirely on frozen snapshots; other samplers fall back to the Graph path.
type Factory func(z int, seed int64) Sampler

// ParallelSampler runs a serial estimator's sample budget across a worker
// pool. It is safe for concurrent use: every public call freezes the graph
// once (a cached CSR snapshot), atomically claims a call index (which
// decorrelates successive calls, mirroring the advancing RNG state of a
// serial sampler), takes per-worker serial samplers from an internal pool,
// and merges per-shard results in a fixed order. For a given seed the i-th
// call returns bit-identical results at any worker count; concurrent
// callers are race-free but observe call indices in arrival order.
type ParallelSampler struct {
	name    string
	factory Factory
	workers int
	shards  int
	// quantum is the underlying estimator's preferred budget granularity
	// (64 for mcvec's lane blocks, 1 for the scalar kinds): shard budgets
	// are multiples of it except the last, which absorbs the tail.
	quantum int
	seed    atomic.Int64
	z       atomic.Int64
	call    atomic.Int64
	// pool leases the per-worker serial samplers. It is a pointer so that
	// request-scoped ParallelSamplers derived by an Engine can share one
	// warm pool (NewParallelShared) — the leased samplers' scratch arrays
	// stay sized to the graph across requests instead of being rebuilt.
	pool *sync.Pool
	canceller
}

// factoryFor maps an estimator kind ("mc", "rss", "lazy" or "mcvec") to
// its serial factory.
func factoryFor(kind string) (Factory, error) {
	switch kind {
	case "mc":
		return func(z int, seed int64) Sampler { return NewMonteCarlo(z, seed) }, nil
	case "rss":
		return func(z int, seed int64) Sampler { return NewRSS(z, seed) }, nil
	case "lazy":
		return func(z int, seed int64) Sampler { return NewLazy(z, seed) }, nil
	case "mcvec":
		return func(z int, seed int64) Sampler { return NewMCVec(z, seed) }, nil
	default:
		return nil, fmt.Errorf("sampling: unknown sampler %q (want mc, rss, lazy or mcvec)", kind)
	}
}

// KnownKind reports whether kind names a built-in estimator ("mc", "rss",
// "lazy" or "mcvec") — the validation the Engine's query canonicalization
// uses to reject unknown sampler overrides before any work is queued.
func KnownKind(kind string) bool {
	_, err := factoryFor(kind)
	return err == nil
}

// budgetQuantizer is implemented by estimators whose work comes in fixed
// sample-count blocks (MCVec's 64 lane worlds): ParallelSampler aligns
// shard budgets to the quantum so interior shards run whole blocks and only
// the final shard carries the z % quantum tail.
type budgetQuantizer interface {
	budgetQuantum() int
}

// quantumOf probes a factory for the estimator's budget quantum (1 for the
// scalar samplers). The probe sampler is returned to the caller for pool
// seeding so the construction-time allocation is not wasted.
func quantumOf(factory Factory) (int, Sampler) {
	probe := factory(1, 0)
	if q, ok := probe.(budgetQuantizer); ok {
		return q.budgetQuantum(), probe
	}
	return 1, probe
}

// NewSerial constructs a serial sampler of the named kind ("mc", "rss",
// "lazy" or "mcvec") — the single-goroutine counterpart of NewParallel. On
// error the returned interface is nil (never a typed-nil concrete pointer),
// so `smp == nil` is a valid failure check.
func NewSerial(kind string, z int, seed int64) (Sampler, error) {
	factory, err := factoryFor(kind)
	if err != nil {
		return nil, err
	}
	return factory(z, seed), nil
}

// NewParallel wraps the named estimator kind ("mc", "rss", "lazy" or
// "mcvec") in a ParallelSampler with total budget z. workers <= 0 selects
// runtime.GOMAXPROCS(0).
func NewParallel(kind string, z int, seed int64, workers int) (*ParallelSampler, error) {
	factory, err := factoryFor(kind)
	if err != nil {
		return nil, err
	}
	return NewParallelWith(kind, factory, z, seed, workers), nil
}

// NewParallelWith wraps an arbitrary serial-sampler factory. The name is
// what Name() reports (conventionally the underlying estimator's name).
func NewParallelWith(name string, factory Factory, z int, seed int64, workers int) *ParallelSampler {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ps := &ParallelSampler{name: name, factory: factory, workers: workers, shards: DefaultShards}
	ps.seed.Store(seed)
	ps.z.Store(int64(z))
	quantum, probe := quantumOf(factory)
	ps.quantum = quantum
	ps.pool = &sync.Pool{New: func() any { return factory(1, 0) }}
	ps.pool.Put(probe)
	return ps
}

// SharedScratch is a warm, goroutine-safe pool of serial samplers for one
// estimator kind. ParallelSamplers built over it (NewParallelShared) lease
// their per-worker samplers from the shared pool instead of a private one,
// so a long-lived Engine serving many requests reuses the samplers' scratch
// arrays (epoch-stamped visited/edge-state buffers, RSS arenas) across
// requests. Sharing never affects results: every leased sampler is fully
// reconfigured (Reseed + SetSampleSize + SetContext) before estimating.
type SharedScratch struct {
	kind    string
	quantum int
	pool    sync.Pool
}

// NewSharedScratch validates the estimator kind and returns an empty warm
// pool for it.
func NewSharedScratch(kind string) (*SharedScratch, error) {
	factory, err := factoryFor(kind)
	if err != nil {
		return nil, err
	}
	ss := &SharedScratch{kind: kind}
	quantum, probe := quantumOf(factory)
	ss.quantum = quantum
	ss.pool.New = func() any { return factory(1, 0) }
	ss.pool.Put(probe)
	return ss, nil
}

// Kind returns the estimator kind the pool was built for.
func (ss *SharedScratch) Kind() string { return ss.kind }

// NewParallelShared is NewParallel leasing its serial samplers from the
// shared pool; the pool's kind determines the estimator. Results are
// bit-identical to an equally configured NewParallel sampler.
func NewParallelShared(ss *SharedScratch, z int, seed int64, workers int) *ParallelSampler {
	factory, err := factoryFor(ss.kind)
	if err != nil {
		// NewSharedScratch validated the kind; an invalid one here means
		// the SharedScratch was not obtained from it.
		panic(err)
	}
	ps := NewParallelWith(ss.kind, factory, z, seed, workers)
	ps.pool = &ss.pool
	ps.quantum = ss.quantum
	return ps
}

// Name implements Sampler.
func (ps *ParallelSampler) Name() string { return ps.name }

// Workers returns the configured worker-pool size.
func (ps *ParallelSampler) Workers() int { return ps.workers }

// SampleSize implements Sampler.
func (ps *ParallelSampler) SampleSize() int { return int(ps.z.Load()) }

// SetSampleSize implements Sampler; unlike the serial samplers it is safe
// to call concurrently with estimates (in-flight calls keep the budget
// they loaded at entry).
func (ps *ParallelSampler) SetSampleSize(z int) { ps.z.Store(int64(z)) }

// Reseed implements Sampler: it resets both the base seed and the call
// counter, so the sequence of results restarts as from construction. It
// is race-free against in-flight estimates, but the replay guarantee only
// holds once those estimates have drained (seed and counter are two
// atomics, not one transaction).
func (ps *ParallelSampler) Reseed(seed int64) {
	ps.seed.Store(seed)
	ps.call.Store(0)
}

// nextCallSeed claims the next call index and derives its seed. Every
// public estimate consumes exactly one index, making a serial call
// sequence reproducible end to end.
func (ps *ParallelSampler) nextCallSeed() int64 {
	return rng.SplitSeed(ps.seed.Load(), ps.call.Add(1))
}

// fanOut runs fn(smp, i) for i in [0, n) on up to ps.workers goroutines.
// Each goroutine leases one serial sampler from the pool for its lifetime
// and binds it to the ParallelSampler's context (cleared again before the
// sampler returns to the — possibly shared — pool); fn must fully configure
// it (Reseed + SetSampleSize) before estimating, so leftover pool state
// never leaks into results. When the bound context fires, remaining work
// items are skipped: the merged result is garbage, and the caller is
// expected to discard it after observing ctx.Err().
func (ps *ParallelSampler) fanOut(n int, fn func(smp Sampler, i int)) {
	w := ps.workers
	if w > n {
		w = n
	}
	if w <= 1 {
		smp := ps.lease()
		for i := 0; i < n; i++ {
			if ps.cancelled() {
				break
			}
			fn(smp, i)
		}
		ps.release(smp)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			smp := ps.lease()
			defer ps.release(smp)
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ps.cancelled() {
					return
				}
				fn(smp, i)
			}
		}()
	}
	wg.Wait()
}

// lease takes a serial sampler from the pool and binds the current context
// so its sample loops abort promptly on cancellation.
func (ps *ParallelSampler) lease() Sampler {
	smp := ps.pool.Get().(Sampler)
	smp.SetContext(ps.ctx)
	return smp
}

// release unbinds the context and returns the sampler to the pool.
func (ps *ParallelSampler) release(smp Sampler) {
	smp.SetContext(nil)
	ps.pool.Put(smp)
}

// minShardBudget is the smallest per-shard sample budget worth the fan-out
// overhead. Budgets below shards·minShardBudget use proportionally fewer
// shards — the solvers' inner loops estimate tiny path subgraphs with
// modest Z thousands of times, where full sharding costs more in setup
// than it wins in parallelism. The shard count depends only on z, never on
// the worker count, so determinism across pool sizes is unaffected.
const minShardBudget = 64

// shardBudgets splits z into deterministic sub-budgets, every one >= 1
// (shards never exceed z; the first z mod shards shards get one extra
// sample).
func (ps *ParallelSampler) shardBudgets(z int) []int {
	return ps.shardBudgetsFor(z, 1)
}

// shardBudgetsFor is shardBudgets for a batch of items evaluated in one
// fan-out: the per-item shard count scales down as the batch grows, so a
// one-item batch is sharded like a scalar call (the whole pool works on
// it) while a batch that alone saturates the shard target gets one shard
// per item and pays no per-shard overhead (each shard costs an estimator
// reset: scratch epochs and, for RSS and lazy, per-edge state sized to the
// graph; the RNG reseed itself is O(1)). The count depends only on
// (z, items) and the estimator's fixed quantum, never on the worker count,
// so results stay bit-identical across pool sizes.
//
// Budgets are distributed in units of the estimator's quantum (64 for
// mcvec's lane blocks): every shard receives whole blocks and only the
// last shard is shrunk by the z % quantum tail, so interior shards never
// pay a partial lane mask. For quantum 1 (the scalar kinds) this reduces
// exactly to the historical even split, so the scalar kinds keep their
// shard budgets and shard seeds.
func (ps *ParallelSampler) shardBudgetsFor(z, items int) []int {
	if z < 1 {
		z = 1
	}
	if items < 1 {
		items = 1
	}
	q := ps.quantum
	if q < 1 {
		q = 1
	}
	blocks := (z + q - 1) / q
	unit := minShardBudget / q
	if unit < 1 {
		unit = 1
	}
	shards := (blocks + unit - 1) / unit
	if target := (ps.shards + items - 1) / items; shards > target {
		shards = target
	}
	if shards > ps.shards {
		shards = ps.shards
	}
	out := make([]int, shards)
	base, extra := blocks/shards, blocks%shards
	for i := range out {
		nb := base
		if i < extra {
			nb++
		}
		out[i] = nb * q
	}
	// The tail never exceeds the last shard's whole-block budget: the last
	// shard holds >= 1 block and the shortfall is < one block.
	out[shards-1] -= blocks*q - z
	return out
}

// shardReliability runs one shard's conditioned estimate on the snapshot,
// falling back to a Graph-path call for non-CSR factories. g is nil when
// the public call entered through a snapshot-level CSRSampler method — no
// Graph exists to fall back to, so a non-CSR factory is a contract
// violation reported as an explicit panic rather than a nil dereference
// deep inside the sampler.
func shardReliability(smp Sampler, c *ugraph.CSR, g *ugraph.Graph, s, t ugraph.NodeID) float64 {
	if cs, ok := smp.(CSRSampler); ok {
		return cs.ReliabilityCSR(c, s, t)
	}
	if g == nil {
		panic("sampling: snapshot-level ParallelSampler calls require the factory's sampler to implement CSRSampler")
	}
	return smp.Reliability(g, s, t)
}

// Reliability implements Sampler: shard i estimates with budget z_i on the
// stream Split(callSeed, i), and the estimates combine as the
// budget-weighted mean Σ (z_i/Z)·est_i — for MC exactly the pooled
// hit fraction, for RSS/Lazy an equally weighted mixture of independent
// unbiased estimates.
func (ps *ParallelSampler) Reliability(g *ugraph.Graph, s, t ugraph.NodeID) float64 {
	if s == t {
		return 1
	}
	return ps.reliabilityCSR(g.Freeze(), g, s, t)
}

// ReliabilityCSR implements CSRSampler on an already-frozen snapshot (or a
// WithEdges overlay). Non-CSR factory samplers cannot be driven from a bare
// snapshot, so this entry point requires a CSR-capable factory; the
// built-in mc/rss/lazy kinds all are.
func (ps *ParallelSampler) ReliabilityCSR(c *ugraph.CSR, s, t ugraph.NodeID) float64 {
	if s == t {
		return 1
	}
	return ps.reliabilityCSR(c, nil, s, t)
}

func (ps *ParallelSampler) reliabilityCSR(c *ugraph.CSR, g *ugraph.Graph, s, t ugraph.NodeID) float64 {
	z := ps.SampleSize()
	callSeed := ps.nextCallSeed()
	budgets := ps.shardBudgets(z)
	est := make([]float64, len(budgets))
	ps.fanOut(len(budgets), func(smp Sampler, i int) {
		smp.Reseed(rng.SplitSeed(callSeed, int64(i)))
		smp.SetSampleSize(budgets[i])
		est[i] = shardReliability(smp, c, g, s, t)
	})
	return mergeScalar(est, budgets)
}

// ReliabilityFrom implements Sampler.
func (ps *ParallelSampler) ReliabilityFrom(g *ugraph.Graph, s ugraph.NodeID) []float64 {
	return ps.vector(g.Freeze(), g, s, true)
}

// ReliabilityTo implements Sampler.
func (ps *ParallelSampler) ReliabilityTo(g *ugraph.Graph, t ugraph.NodeID) []float64 {
	return ps.vector(g.Freeze(), g, t, false)
}

// ReliabilityFromCSR implements CSRSampler.
func (ps *ParallelSampler) ReliabilityFromCSR(c *ugraph.CSR, s ugraph.NodeID) []float64 {
	return ps.vector(c, nil, s, true)
}

// ReliabilityToCSR implements CSRSampler.
func (ps *ParallelSampler) ReliabilityToCSR(c *ugraph.CSR, t ugraph.NodeID) []float64 {
	return ps.vector(c, nil, t, false)
}

func (ps *ParallelSampler) vector(c *ugraph.CSR, g *ugraph.Graph, src ugraph.NodeID, forward bool) []float64 {
	z := ps.SampleSize()
	callSeed := ps.nextCallSeed()
	budgets := ps.shardBudgets(z)
	vecs := make([][]float64, len(budgets))
	ps.fanOut(len(budgets), func(smp Sampler, i int) {
		smp.Reseed(rng.SplitSeed(callSeed, int64(i)))
		smp.SetSampleSize(budgets[i])
		vecs[i] = shardVector(smp, c, g, src, forward)
	})
	return mergeVectors(vecs, budgets, c.N())
}

func shardVector(smp Sampler, c *ugraph.CSR, g *ugraph.Graph, src ugraph.NodeID, forward bool) []float64 {
	if cs, ok := smp.(CSRSampler); ok {
		if forward {
			return cs.ReliabilityFromCSR(c, src)
		}
		return cs.ReliabilityToCSR(c, src)
	}
	if g == nil {
		panic("sampling: snapshot-level ParallelSampler calls require the factory's sampler to implement CSRSampler")
	}
	if forward {
		return smp.ReliabilityFrom(g, src)
	}
	return smp.ReliabilityTo(g, src)
}

// mergeScalar folds per-shard estimates as Σ(b_i·e_i)/z in shard order;
// the fixed order keeps float summation bit-reproducible, and the single
// final division keeps unanimous shards exact (all-1 estimates merge to
// exactly 1, which per-shard b_i/z weights would miss when z splits
// unevenly).
func mergeScalar(est []float64, budgets []int) float64 {
	total, z := 0.0, 0
	for _, b := range budgets {
		z += b
	}
	for i, e := range est {
		total += float64(budgets[i]) * e
	}
	return total / float64(z)
}

// mergeVectors folds per-shard vectors as Σ(b_i·v_i)·(1/z) in shard order.
// The reciprocal is rounded, so each entry is clamped to at most 1 like
// the RSS results.
func mergeVectors(vecs [][]float64, budgets []int, n int) []float64 {
	acc := make([]float64, n)
	z := 0
	for _, b := range budgets {
		z += b
	}
	for i, vec := range vecs {
		w := float64(budgets[i])
		for v, x := range vec {
			acc[v] += w * x
		}
	}
	inv := 1 / float64(z)
	for v := range acc {
		acc[v] = clampUnit(acc[v] * inv)
	}
	return acc
}

// EstimateMany implements BatchSampler. The fan-out covers the
// (query, shard) product — not just the queries — so a two-query batch at
// Workers=8 still keeps every worker busy: query q's shard i draws from
// the stream Split(Split(callSeed, q), i) with the same deterministic
// budget split as a scalar call. Result q is deterministic in (seed, q)
// at any worker count; the streams are keyed on the (query, shard) pair,
// so results are statistically equivalent but not bit-identical to
// one-at-a-time Reliability calls.
func (ps *ParallelSampler) EstimateMany(g *ugraph.Graph, queries []PairQuery) []float64 {
	if len(queries) == 0 {
		return nil
	}
	return ps.estimateManyCSR(g.Freeze(), g, queries)
}

// EstimateManyCSR is EstimateMany on an already-frozen snapshot (flat or
// layered): the serving tier's batch path runs directly on the pinned
// epoch's CSR without materializing a mutable Graph. Like the other
// snapshot-level entry points it requires a CSR-capable factory (the
// built-in kinds all are). Results are bit-identical to EstimateMany over a
// graph that freezes to the same logical snapshot.
func (ps *ParallelSampler) EstimateManyCSR(c *ugraph.CSR, queries []PairQuery) []float64 {
	if len(queries) == 0 {
		return nil
	}
	return ps.estimateManyCSR(c, nil, queries)
}

func (ps *ParallelSampler) estimateManyCSR(c *ugraph.CSR, g *ugraph.Graph, queries []PairQuery) []float64 {
	z := ps.SampleSize()
	callSeed := ps.nextCallSeed()
	budgets := ps.shardBudgetsFor(z, len(queries))
	shards := len(budgets)
	est := make([]float64, len(queries)*shards)
	ps.fanOut(len(est), func(smp Sampler, k int) {
		qi, si := k/shards, k%shards
		q := queries[qi]
		if q.S == q.T {
			est[k] = 1
			return
		}
		smp.Reseed(rng.SplitSeed(rng.SplitSeed(callSeed, int64(qi)), int64(si)))
		smp.SetSampleSize(budgets[si])
		est[k] = shardReliability(smp, c, g, q.S, q.T)
	})
	out := make([]float64, len(queries))
	for qi := range queries {
		out[qi] = mergeScalar(est[qi*shards:(qi+1)*shards], budgets)
	}
	return out
}

// EstimateEdges implements BatchSampler: the base graph is frozen once,
// candidate edge e is evaluated on a lightweight CSR overlay (no per-
// candidate clone or snapshot rebuild), and — like EstimateMany — the
// fan-out covers the (candidate, shard) product so small candidate sets
// still saturate the pool. This is the batched form of the hill-climbing /
// individual-top-k inner loop.
func (ps *ParallelSampler) EstimateEdges(g *ugraph.Graph, s, t ugraph.NodeID, edges []ugraph.Edge) []float64 {
	if len(edges) == 0 {
		return nil
	}
	z := ps.SampleSize()
	callSeed := ps.nextCallSeed()
	budgets := ps.shardBudgetsFor(z, len(edges))
	shards := len(budgets)
	base := g.Freeze()
	views := make([]*ugraph.CSR, len(edges))
	for i := range edges {
		views[i] = base.WithEdges(edges[i : i+1])
	}
	est := make([]float64, len(edges)*shards)
	ps.fanOut(len(est), func(smp Sampler, k int) {
		ei, si := k/shards, k%shards
		smp.Reseed(rng.SplitSeed(rng.SplitSeed(callSeed, int64(ei)), int64(si)))
		smp.SetSampleSize(budgets[si])
		if cs, ok := smp.(CSRSampler); ok {
			est[k] = cs.ReliabilityCSR(views[ei], s, t)
		} else {
			est[k] = smp.Reliability(g.WithEdges(edges[ei:ei+1]), s, t)
		}
	})
	out := make([]float64, len(edges))
	for ei := range edges {
		out[ei] = mergeScalar(est[ei*shards:(ei+1)*shards], budgets)
	}
	return out
}

// ReliabilityFromMany implements BatchSampler.
func (ps *ParallelSampler) ReliabilityFromMany(g *ugraph.Graph, sources []ugraph.NodeID) [][]float64 {
	return ps.vectorMany(g, sources, true)
}

// ReliabilityToMany implements BatchSampler.
func (ps *ParallelSampler) ReliabilityToMany(g *ugraph.Graph, targets []ugraph.NodeID) [][]float64 {
	return ps.vectorMany(g, targets, false)
}

// vectorMany fans out over the (node, shard) product rather than just the
// nodes, so a two-source batch at Workers=8 still keeps every worker busy.
// Node n's shard i draws from Split(Split(callSeed, n), i): the stream is
// keyed on the (node, shard) pair alone, preserving determinism across
// pool sizes. The streams differ from the single-node vector() path
// (which keys on shard only), so batched results are statistically
// equivalent but not bit-identical to per-node calls.
func (ps *ParallelSampler) vectorMany(g *ugraph.Graph, nodes []ugraph.NodeID, forward bool) [][]float64 {
	z := ps.SampleSize()
	callSeed := ps.nextCallSeed()
	budgets := ps.shardBudgetsFor(z, len(nodes))
	shards := len(budgets)
	c := g.Freeze()
	vecs := make([][]float64, len(nodes)*shards)
	ps.fanOut(len(vecs), func(smp Sampler, k int) {
		n, i := k/shards, k%shards
		smp.Reseed(rng.SplitSeed(rng.SplitSeed(callSeed, int64(n)), int64(i)))
		smp.SetSampleSize(budgets[i])
		vecs[k] = shardVector(smp, c, g, nodes[n], forward)
	})
	out := make([][]float64, len(nodes))
	for n := range nodes {
		out[n] = mergeVectors(vecs[n*shards:(n+1)*shards], budgets, c.N())
	}
	return out
}

// FromMany returns one ReliabilityFrom vector per node: batched when smp
// is a BatchSampler, otherwise a serial loop in node order (preserving
// the exact RNG call sequence a plain sampler would produce). The shared
// fallback for candidate elimination and pair-reliability matrices.
func FromMany(smp Sampler, g *ugraph.Graph, nodes []ugraph.NodeID) [][]float64 {
	if bs, ok := smp.(BatchSampler); ok {
		return bs.ReliabilityFromMany(g, nodes)
	}
	out := make([][]float64, len(nodes))
	for i, v := range nodes {
		out[i] = smp.ReliabilityFrom(g, v)
	}
	return out
}

// ToMany is FromMany's reverse-direction counterpart.
func ToMany(smp Sampler, g *ugraph.Graph, nodes []ugraph.NodeID) [][]float64 {
	if bs, ok := smp.(BatchSampler); ok {
		return bs.ReliabilityToMany(g, nodes)
	}
	out := make([][]float64, len(nodes))
	for i, v := range nodes {
		out[i] = smp.ReliabilityTo(g, v)
	}
	return out
}
