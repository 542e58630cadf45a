package sampling

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// samplerKind is one built-in estimator: its constructor, its budget
// quantum and the package-wide warm pool of its serial samplers.
type samplerKind struct {
	new func(z int, seed int64) CSRSampler
	// quantum is the estimator's preferred budget granularity (64 for
	// mcvec's lane blocks, 1 for the scalar kinds): ParallelSampler's shard
	// budgets are multiples of it except the last, which absorbs the tail.
	quantum int
	// pool holds idle serial samplers. Their scratch arrays (epoch-stamped
	// visited buffers, per-edge state, RSS arenas) stay sized to the largest
	// graph they ran on, so a warm lease allocates nothing graph-sized.
	pool sync.Pool
}

func newKind(quantum int, ctor func(z int, seed int64) CSRSampler) *samplerKind {
	k := &samplerKind{new: ctor, quantum: quantum}
	k.pool.New = func() any { return ctor(1, 0) }
	return k
}

// kinds is the estimator table: every sampler the package hands out, serial
// or parallel, is built or leased through it.
var kinds = map[string]*samplerKind{
	"mc":    newKind(1, func(z int, seed int64) CSRSampler { return NewMonteCarlo(z, seed) }),
	"rss":   newKind(1, func(z int, seed int64) CSRSampler { return NewRSS(z, seed) }),
	"lazy":  newKind(1, func(z int, seed int64) CSRSampler { return NewLazy(z, seed) }),
	"mcvec": newKind(laneBlock, func(z int, seed int64) CSRSampler { return NewMCVec(z, seed) }),
}

func lookup(kind string) (*samplerKind, error) {
	k, ok := kinds[kind]
	if !ok {
		return nil, fmt.Errorf("sampling: unknown sampler %q (want mc, rss, lazy or mcvec)", kind)
	}
	return k, nil
}

// KnownKind reports whether kind names a built-in estimator ("mc", "rss",
// "lazy" or "mcvec") — the validation the Engine's query canonicalization
// uses to reject unknown sampler overrides before any work is queued.
func KnownKind(kind string) bool {
	_, ok := kinds[kind]
	return ok
}

// lease takes a serial sampler from the warm pool and binds ctx so its
// sample loops abort promptly on cancellation. Pooled samplers carry state
// from earlier estimates: the caller must Reseed and SetSampleSize before
// estimating, which resets everything a result depends on.
func (k *samplerKind) lease(ctx context.Context) CSRSampler {
	smp := k.pool.Get().(CSRSampler)
	smp.SetContext(ctx)
	return smp
}

// release unbinds the context and returns the sampler to the pool.
func (k *samplerKind) release(smp CSRSampler) {
	smp.SetContext(nil)
	k.pool.Put(smp)
}

// fanOut runs fn(smp, i) for every i in [0, n) through FanOut, each item
// on a serial sampler leased from the warm pool and bound to ctx. fn must
// fully configure the sampler (Reseed + SetSampleSize) before estimating,
// so leftover pool state never leaks into results. Once ctx fires the
// remaining items are skipped and the merged result is garbage: callers
// discard it after observing ctx.Err().
func (k *samplerKind) fanOut(ctx context.Context, workers, n int, fn func(smp CSRSampler, i int)) {
	FanOut(ctx, workers, n, func(i int) {
		smp := k.lease(ctx)
		fn(smp, i)
		k.release(smp)
	})
}

// Lease takes an idle serial sampler of the named kind from the package's
// warm pool (constructing one when the pool is empty). It must be fully
// reconfigured — Reseed and SetSampleSize — before use, after which it
// estimates exactly like a fresh NewSerial sampler. Hand it back with
// Release once no estimate or block stream uses it any more.
func Lease(kind string) (CSRSampler, error) {
	k, err := lookup(kind)
	if err != nil {
		return nil, err
	}
	return k.lease(nil), nil
}

// Release returns a sampler obtained from Lease to its kind's warm pool.
func Release(smp CSRSampler) { kinds[smp.Name()].release(smp) }

// FanOut calls fn(i) for every i in [0, n) on up to workers goroutines that
// claim indices from a shared counter, and returns once all have finished.
// workers <= 0 selects runtime.GOMAXPROCS(0); with one worker the indices
// run in order on the calling goroutine. Once ctx fires, unclaimed indices
// are skipped. Callers write item i's result to its own slot and merge in
// index order, so the outcome never depends on the worker count or the
// schedule.
func FanOut(ctx context.Context, workers, n int, fn func(i int)) {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	stopped := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n && !stopped(); i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || stopped() {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
