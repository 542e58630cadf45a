// Package rng provides small deterministic random-number utilities used
// across the library. Every run is reproducible from a single seed: the
// samplers draw from SplitMix64, a value-type stream whose reseed is O(1),
// while the generators, dataset builders and experiment drivers take an
// explicit *rand.Rand derived through New and Split (so the generated
// datasets and query workloads keep their historical streams).
package rng

import (
	"math"
	"math/bits"
	"math/rand"
)

// New returns a rand.Rand seeded deterministically from seed.
func New(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Split derives a child RNG from a parent seed and a stream index, so that
// parallel or repeated sub-computations get decorrelated but reproducible
// streams. It uses SplitMix64 over the combined value.
func Split(seed int64, stream int64) *rand.Rand {
	return New(SplitSeed(seed, stream))
}

// SplitSeed is the allocation-free core of Split: it derives the child seed
// for the given stream without constructing a rand.Rand. Parallel samplers
// use it to assign one deterministic seed per work shard.
func SplitSeed(seed int64, stream int64) int64 {
	return int64(splitmix64(uint64(seed) ^ (0x9e3779b97f4a7c15 * uint64(stream+1))))
}

// splitmix64 is the finalizer of the SplitMix64 generator; one application
// is enough to decorrelate structured seed inputs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Perm fills a permutation of [0,n) using r.
func Perm(r *rand.Rand, n int) []int {
	return r.Perm(n)
}

// Bernoulli reports true with probability p.
func Bernoulli(r *rand.Rand, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// SplitMix64 is the random stream of every sampler (Steele, Lea & Flood,
// "Fast splittable pseudorandom number generators", OOPSLA 2014): a 64-bit
// counter advanced by a fixed odd gamma and passed through a finalizer.
// The scalar samplers (mc, rss, lazy) draw one Float64 per coin flip and
// the vector sampler draws BernoulliMask words from it. Samplers hold it by
// value and walks take the concrete *SplitMix64, so every draw inlines
// into the caller's loop (no interface dispatch), and Seed is a single
// store — ParallelSampler reseeds once per shard per call. The seed is
// passed through the finalizer once so that structured seeds (0, 1, 2, ...
// from SplitSeed shards) start at decorrelated counter positions rather
// than adjacent ones.
type SplitMix64 struct {
	x uint64
}

// NewSplitMix64 returns a stream seeded deterministically from seed.
func NewSplitMix64(seed int64) SplitMix64 {
	return SplitMix64{x: splitmix64(uint64(seed))}
}

// Seed resets the stream to the state NewSplitMix64(seed) starts from.
func (m *SplitMix64) Seed(seed int64) {
	m.x = splitmix64(uint64(seed))
}

// Uint64 returns the next word of the stream.
func (m *SplitMix64) Uint64() uint64 {
	m.x += 0x9e3779b97f4a7c15
	x := m.x
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Float64 returns a uniform value in [0, 1): the top 53 bits of the next
// word scaled by 2^-53, so every representable multiple of 2^-53 is
// equally likely and 1 is never returned (a coin flip `u < p` is therefore
// always false at p = 0 and always true at p = 1).
func (m *SplitMix64) Float64() float64 {
	return float64(m.Uint64()>>11) * 0x1p-53
}

// BernoulliMask draws 64 independent Bernoulli(p) trials at once and packs
// them into one word: bit j is set with probability p, independently of
// every other bit. This is the word-parallel counterpart of 64 Bernoulli
// calls, and the RNG primitive of the 64-lane Monte Carlo sampler: one mask
// is one edge's existence across 64 possible worlds.
//
// It compares the binary digits of 64 implicit uniforms against the digits
// of p simultaneously, drawing one random word per digit position and
// retiring a lane at the first position where its uniform's digit differs
// from p's. A lane halves its survival probability per digit, so the
// expected draw count is ~log2(64)+2 = 8 words per mask — an ~8x reduction
// in RNG work over 64 scalar Float64 comparisons, on top of the BFS-level
// word parallelism. The digits of p come straight from its float64
// representation (exponent zeros, then the 53 significand bits); lanes
// still undecided after the last digit have a uniform exactly equal to p's
// finite expansion and resolve to failure, matching the strict `u < p`
// convention of Bernoulli.
func BernoulliMask(r *SplitMix64, p float64) uint64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return ^uint64(0)
	}
	b := math.Float64bits(p)
	exp := int(b >> 52)
	mant := b & (1<<52 - 1)
	digits := 53
	if exp > 0 {
		mant |= 1 << 52 // normal: implicit leading 1 digit
	} else {
		digits = 52 // subnormal: no implicit digit, zero run as if exp 0
	}
	var mask uint64
	undecided := ^uint64(0)
	// p = significand × 2^(exp-1075): its expansion opens with 1022-exp
	// zero digits, each of which fails the lanes whose uniform digit is 1.
	for zeros := 1022 - exp; zeros > 0 && undecided != 0; zeros-- {
		undecided &^= r.Uint64()
	}
	// Digits below p's last 1 decide nothing: a lane undecided there can
	// only match p's (all-zero) tail or fail, and both resolve to failure.
	// Stopping early makes dyadic ps (0.5, 0.75, ...) cost O(1) words.
	for i := digits - 1; i >= bits.TrailingZeros64(mant) && undecided != 0; i-- {
		w := r.Uint64()
		// Branchless digit step: with d = all-ones when p's digit is 1,
		// lanes whose uniform digit is 0 succeed (digit 1) and lanes whose
		// uniform digit is 1 fail (digit 0); survivors keep matching.
		d := -(mant >> uint(i) & 1)
		mask |= undecided & d &^ w
		undecided &= w ^ ^d
	}
	return mask
}
