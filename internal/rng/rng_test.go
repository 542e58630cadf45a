package rng

import (
	"math"
	"testing"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 16; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced diverging streams")
		}
	}
}

func TestSplitDecorrelates(t *testing.T) {
	a, b := Split(42, 0), Split(42, 1)
	same := 0
	for i := 0; i < 32; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams 0 and 1 collided %d times", same)
	}
	// And the same stream index must reproduce.
	c, d := Split(42, 7), Split(42, 7)
	for i := 0; i < 16; i++ {
		if c.Uint64() != d.Uint64() {
			t.Fatal("Split not deterministic")
		}
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := New(1)
	for i := 0; i < 100; i++ {
		if Bernoulli(r, 0) {
			t.Fatal("Bernoulli(0) fired")
		}
		if !Bernoulli(r, 1) {
			t.Fatal("Bernoulli(1) missed")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(2)
	hits := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		if Bernoulli(r, 0.3) {
			hits++
		}
	}
	rate := float64(hits) / trials
	if rate < 0.27 || rate > 0.33 {
		t.Fatalf("Bernoulli(0.3) empirical rate %v", rate)
	}
}

func TestPerm(t *testing.T) {
	r := New(3)
	p := Perm(r, 10)
	seen := make([]bool, 10)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("bad permutation %v", p)
		}
		seen[v] = true
	}
}

func TestBernoulliMaskEdges(t *testing.T) {
	r := NewSplitMix64(4)
	for i := 0; i < 100; i++ {
		if m := BernoulliMask(&r, 0); m != 0 {
			t.Fatalf("BernoulliMask(0) = %#x, want 0", m)
		}
		if m := BernoulliMask(&r, 1); m != ^uint64(0) {
			t.Fatalf("BernoulliMask(1) = %#x, want all ones", m)
		}
		if m := BernoulliMask(&r, -0.5); m != 0 {
			t.Fatalf("BernoulliMask(-0.5) = %#x, want 0", m)
		}
		if m := BernoulliMask(&r, 1.5); m != ^uint64(0) {
			t.Fatalf("BernoulliMask(1.5) = %#x, want all ones", m)
		}
	}
}

// TestBernoulliMaskRate checks every one of the 64 lanes independently:
// each bit position must fire at rate p, so a lane-coupling bug (a digit
// word reused across positions, an off-by-one in the undecided mask)
// cannot hide in an aggregate count.
func TestBernoulliMaskRate(t *testing.T) {
	for _, p := range []float64{0.05, 0.3, 0.5, 0.75, 1.0 / 3.0} {
		r := NewSplitMix64(5)
		const trials = 8000
		var perLane [64]int
		for i := 0; i < trials; i++ {
			m := BernoulliMask(&r, p)
			for lane := 0; lane < 64; lane++ {
				if m&(1<<lane) != 0 {
					perLane[lane]++
				}
			}
		}
		// 5-sigma binomial bound per lane; with 64 lanes x 5 ps the
		// false-failure probability stays ~1e-5.
		tol := 5 * math.Sqrt(p*(1-p)/trials)
		for lane, hits := range perLane {
			rate := float64(hits) / trials
			if rate < p-tol || rate > p+tol {
				t.Errorf("p=%v lane %d: empirical rate %v outside %v ± %v", p, lane, rate, p, tol)
			}
		}
	}
}

// TestBernoulliMaskDeterministic pins the stream: same seed, same masks.
func TestBernoulliMaskDeterministic(t *testing.T) {
	a, b := NewSplitMix64(6), NewSplitMix64(6)
	for i := 0; i < 200; i++ {
		p := float64(i%97) / 97
		if ma, mb := BernoulliMask(&a, p), BernoulliMask(&b, p); ma != mb {
			t.Fatalf("iteration %d: masks diverged %#x vs %#x", i, ma, mb)
		}
	}
}

// TestSplitMix64KnownAnswers pins the generator to the published
// SplitMix64 reference outputs for a zero counter, so the sampler stream
// cannot drift silently.
func TestSplitMix64KnownAnswers(t *testing.T) {
	r := SplitMix64{}
	for i, want := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f} {
		if got := r.Uint64(); got != want {
			t.Fatalf("word %d = %#x, want %#x", i, got, want)
		}
	}
}

// TestSplitMix64Float64 checks the Float64 definition (top 53 bits of the
// next word times 2^-53) word for word, its [0, 1) range and its mean.
func TestSplitMix64Float64(t *testing.T) {
	a, b := NewSplitMix64(7), NewSplitMix64(7)
	sum := 0.0
	const n = 20000
	for i := 0; i < n; i++ {
		u := a.Float64()
		if want := float64(b.Uint64()>>11) / (1 << 53); u != want {
			t.Fatalf("draw %d = %v, want %v", i, u, want)
		}
		if u < 0 || u >= 1 {
			t.Fatalf("draw %d = %v outside [0, 1)", i, u)
		}
		sum += u
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean of %d draws = %v, want ~0.5", n, mean)
	}
}

// TestSplitMix64SeedResets pins the O(1) reseed: Seed(s) after arbitrary
// use restarts exactly where NewSplitMix64(s) starts.
func TestSplitMix64SeedResets(t *testing.T) {
	used := NewSplitMix64(1)
	for i := 0; i < 37; i++ {
		used.Uint64()
	}
	used.Seed(9)
	fresh := NewSplitMix64(9)
	for i := 0; i < 16; i++ {
		if a, b := used.Uint64(), fresh.Uint64(); a != b {
			t.Fatalf("word %d after Seed: %#x, fresh stream %#x", i, a, b)
		}
	}
}
