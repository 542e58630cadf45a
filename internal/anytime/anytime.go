// Package anytime turns the fixed-budget reliability samplers into an
// anytime estimator: samples are drawn in 64-aligned blocks, a running
// confidence interval (Wilson score or Hoeffding bound, whichever is
// tighter) is maintained over the pooled draws, and sampling stops at the
// first of — target half-width reached, sample budget exhausted, or
// context deadline. The caller gets an Estimate carrying the point value,
// the served interval, the samples actually spent and why the run stopped,
// so easy queries finish early and hard queries return honest error bars.
//
// # Determinism
//
// The controller never trades reproducibility for adaptivity. Samples are
// drawn in one global block order: block j holds BlockSize samples (the
// last takes the sub-block tail of MaxZ) and runs on stream j mod S. In
// serial mode (Workers == 0) S is 1 and the stream is seeded with Seed; in
// sharded mode (Workers != 0) S is 16 and shard i draws from
// rng.SplitSeed(seed, i). Blocks are 64-aligned so mcvec lane blocks never
// split, and a block that starts always completes. The stop rule is
// evaluated on every block prefix in that order, so the result depends
// only on (seed, mode, stop point): it is bit-identical at any non-zero
// worker count, SamplesUsed is a whole number of blocks (or MaxZ), and an
// adaptive run equals a fixed-budget controller run (Precision 0) whose
// MaxZ is the adaptive run's SamplesUsed. In serial mode the sample stream
// of the stream-continuing kinds (mc, lazy, mcvec) is moreover
// bit-identical to a plain fixed-budget sampler of the same kind and seed
// truncated at the stop point. RSS, whose stratified recursion is not
// prefix-continuable, estimates each block independently; its determinism
// contract is the schedule-equivalence one, pinned the same way.
package anytime

import (
	"context"
	"math"
	"runtime"

	"repro/internal/rng"
	"repro/internal/sampling"
	"repro/internal/ugraph"
)

// BlockSize is the sampling granularity: stop conditions are evaluated
// between blocks, and every block is a whole number of mcvec lane words.
const BlockSize = 64

// DefaultMaxZ is the sample-budget cap applied when Config.MaxZ <= 0: high
// enough that precision-bounded queries on hard instances still converge,
// low enough to bound worst-case latency.
const DefaultMaxZ = 65536

// DefaultConfidence is the interval coverage used when Config.Confidence
// is unset.
const DefaultConfidence = 0.95

// shardCount is the fixed number of deterministic sample streams in
// sharded mode. Like sampling.DefaultShards, the shard structure — not
// the worker count — fixes the randomness.
const shardCount = 16

// progressEvery is the number of blocks, counted in the global block
// order, between progress emissions; the run's final estimate is always
// emitted too. Counting folded blocks rather than waves keeps the event
// sequence the same at every worker count.
const progressEvery = 8

// Stop reasons reported in Estimate.StopReason.
const (
	// StopPrecision: the interval half-width reached Config.Precision.
	StopPrecision = "precision"
	// StopBudget: the MaxZ sample budget was exhausted first.
	StopBudget = "budget"
	// StopDeadline: the context deadline fired between blocks; the
	// estimate pools every sample drawn so far.
	StopDeadline = "deadline"
)

// Estimate is an anytime reliability estimate: the pooled point value,
// the served confidence interval, and how (and how expensively) the run
// stopped.
type Estimate struct {
	Point, Lo, Hi float64
	SamplesUsed   int
	StopReason    string
}

// HalfWidth returns the served interval's half-width.
func (e Estimate) HalfWidth() float64 { return (e.Hi - e.Lo) / 2 }

// ProgressFunc observes the narrowing interval while the controller runs.
// It is called from the controller's goroutine between blocks.
type ProgressFunc func(e Estimate)

// Config parameterizes one anytime run.
type Config struct {
	// Sampler is the estimator kind ("mc", "rss", "lazy" or "mcvec");
	// empty defaults to "rss", matching the engine default.
	Sampler string
	// Precision is the target interval half-width; <= 0 disables the
	// precision stop, running to MaxZ (the fixed-budget controller mode
	// the determinism differentials compare against).
	Precision float64
	// MaxZ caps the samples drawn; <= 0 selects DefaultMaxZ.
	MaxZ int
	// Seed fixes the sample streams.
	Seed int64
	// Workers selects the execution mode: 0 runs one serial stream;
	// any non-zero value runs the 16-shard block order in waves of that
	// many blocks on as many goroutines (negative selects GOMAXPROCS; a
	// wave never exceeds shardCount blocks). Results in sharded mode are
	// identical for every worker count.
	Workers int
	// Confidence is the interval coverage in (0, 1); <= 0 selects
	// DefaultConfidence.
	Confidence float64
	// Progress, when non-nil, observes the narrowing interval.
	Progress ProgressFunc
}

func (cfg Config) withDefaults() Config {
	if cfg.Sampler == "" {
		cfg.Sampler = "rss"
	}
	if cfg.MaxZ <= 0 {
		cfg.MaxZ = DefaultMaxZ
	}
	if cfg.Confidence <= 0 || cfg.Confidence >= 1 {
		cfg.Confidence = DefaultConfidence
	}
	return cfg
}

// interval computes the served confidence interval for x pooled successes
// over n draws: the Wilson score interval or the Hoeffding bound,
// whichever half-width is tighter, clipped to [0, 1]. Wilson adapts to
// the observed rate (tight near 0 and 1); Hoeffding is distribution-free
// and occasionally tighter near p = 1/2 at small n. For RSS the success
// mass is real-valued with variance at most Bernoulli's, so both bounds
// remain valid (conservatively).
func interval(x float64, n int, confidence float64) (lo, hi float64) {
	if n <= 0 {
		return 0, 1
	}
	nn := float64(n)
	p := x / nn
	z := math.Sqrt2 * math.Erfinv(confidence)
	denom := 1 + z*z/nn
	center := (p + z*z/(2*nn)) / denom
	whw := z / denom * math.Sqrt(p*(1-p)/nn+z*z/(4*nn*nn))
	lo, hi = center-whw, center+whw
	hhw := math.Sqrt(math.Log(2/(1-confidence)) / (2 * nn))
	if hhw < whw {
		lo, hi = p-hhw, p+hhw
	}
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// Run estimates R(s, t) on the snapshot under cfg. A context deadline
// that fires mid-run is an answer, not an error: the estimate pools the
// samples drawn so far with StopReason = StopDeadline. Cancellation
// (context.Canceled) propagates as the error with a zero Estimate.
func Run(ctx context.Context, c *ugraph.CSR, s, t ugraph.NodeID, cfg Config) (Estimate, error) {
	cfg = cfg.withDefaults()
	if s == t {
		return Estimate{Point: 1, Lo: 1, Hi: 1, StopReason: StopPrecision}, nil
	}
	if cfg.Workers == 0 {
		return runBlocks(ctx, c, s, t, cfg, 1, 1)
	}
	wave := cfg.Workers
	if wave < 0 {
		wave = runtime.GOMAXPROCS(0)
	}
	return runBlocks(ctx, c, s, t, cfg, shardCount, min(wave, shardCount))
}

// lease takes a block sampler of the configured kind from the sampling
// package's warm pool, reseeded so it draws exactly what a fresh sampler
// of that seed would. Blocks carry their own sizes, so the fixed budget is
// set to BlockSize only for the pathological case of the sampler being
// used through its fixed-budget interface. The caller hands it back with
// sampling.Release once its stream is abandoned.
func lease(kind string, seed int64) (sampling.BlockSampler, error) {
	smp, err := sampling.Lease(kind)
	if err != nil {
		return nil, err
	}
	smp.Reseed(seed)
	smp.SetSampleSize(BlockSize)
	return smp.(sampling.BlockSampler), nil
}

// estimate is the served estimate over hits pooled from drawn samples,
// with the reason the run stops there; the reason is empty while the run
// should continue.
func (cfg Config) estimate(hits float64, drawn int) (Estimate, string) {
	lo, hi := interval(hits, drawn, cfg.Confidence)
	est := Estimate{Point: hits / float64(drawn), Lo: lo, Hi: hi, SamplesUsed: drawn}
	switch {
	case cfg.Precision > 0 && est.HalfWidth() <= cfg.Precision:
		return est, StopPrecision
	case drawn >= cfg.MaxZ:
		return est, StopBudget
	}
	return est, ""
}

// blockStream is one of the controller's sample streams: a leased sampler,
// its open block stream and the success mass its blocks have drawn.
type blockStream struct {
	smp    sampling.BlockSampler
	blocks sampling.BlockStream
	hits   float64
}

// blockResult is what one block of a wave drew.
type blockResult struct {
	hits  float64
	drawn int
}

// runBlocks is the one controller loop behind both modes. Block j of the
// global order runs on stream j mod streams (streams is 1 in serial mode,
// shardCount in sharded mode). Blocks run in waves of up to wave
// consecutive blocks — all on distinct streams, since wave <= streams —
// through sampling.FanOut. After each wave the controller folds the
// blocks in global order and stops at the first prefix whose interval
// meets Precision or that reaches MaxZ; the rest of that wave is dropped.
// The stop point therefore depends only on the prefix sequence, never on
// the wave size. A stream's sampler is leased, and its block stream
// opened, only when the stream's first block is scheduled, so a short run
// leases only the streams it draws from. The context is polled between
// waves: a deadline that has fired ends the run with every block drawn
// pooled; cancellation ends it with the error.
//
// Each prefix's pooled mass is summed stream by stream in stream order,
// so the floats a prefix yields are the same however it was reached —
// by an adaptive stop, a fixed budget or a deadline.
func runBlocks(ctx context.Context, c *ugraph.CSR, s, t ugraph.NodeID, cfg Config, streams, wave int) (Estimate, error) {
	open := make([]blockStream, streams)
	defer func() {
		for _, st := range open {
			if st.smp != nil {
				sampling.Release(st.smp)
			}
		}
	}()
	results := make([]blockResult, wave)
	total := (cfg.MaxZ + BlockSize - 1) / BlockSize
	done, drawn := 0, 0
	// draw runs block done+i, the wave's i-th, into results[i].
	draw := func(i int) {
		j := done + i
		h, d := open[j%streams].blocks.SampleBlock(min(BlockSize, cfg.MaxZ-j*BlockSize))
		results[i] = blockResult{hits: h, drawn: d}
	}
	for {
		n := min(wave, total-done)
		for i := 0; i < n; i++ {
			if k := (done + i) % streams; open[k].smp == nil {
				seed := cfg.Seed
				if streams > 1 {
					seed = rng.SplitSeed(cfg.Seed, int64(k))
				}
				smp, err := lease(cfg.Sampler, seed)
				if err != nil {
					return Estimate{}, err
				}
				open[k] = blockStream{smp: smp, blocks: smp.BeginBlocks(c, s, t)}
			}
		}
		// Blocks always complete — the controller polls ctx between
		// waves — so the fan-out gets no context. A one-block wave runs
		// inline, sparing the fan-out's per-call allocations.
		if n == 1 {
			draw(0)
		} else {
			sampling.FanOut(context.Background(), n, n, draw)
		}
		ctxErr := ctx.Err()
		if ctxErr != nil && ctxErr != context.DeadlineExceeded {
			return Estimate{}, ctxErr
		}
		for i := 0; i < n; i++ {
			open[done%streams].hits += results[i].hits
			drawn += results[i].drawn
			done++
			hits := 0.0
			for k := range open {
				hits += open[k].hits
			}
			est, reason := cfg.estimate(hits, drawn)
			if reason == "" && i == n-1 && ctxErr != nil {
				reason = StopDeadline
			}
			if reason != "" {
				est.StopReason = reason
				if cfg.Progress != nil {
					cfg.Progress(est)
				}
				return est, nil
			}
			if cfg.Progress != nil && done%progressEvery == 0 {
				cfg.Progress(est)
			}
		}
	}
}
