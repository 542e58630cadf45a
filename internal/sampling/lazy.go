package sampling

import (
	"math"

	"repro/internal/rng"
	"repro/internal/ugraph"
)

// Lazy is a Monte Carlo variant using lazy propagation (after Li et al.,
// SIGMOD'17, cited in §7): instead of flipping a Bernoulli coin every time
// an edge is examined, each edge remembers the next sample index at which
// it will be present, drawn from a geometric distribution. Edges examined
// in many consecutive samples are then decided with one comparison instead
// of one RNG call per sample, which pays off on hub-heavy graphs where the
// BFS repeatedly probes the same high-degree frontier.
//
// The estimate is distributed identically to MonteCarlo's: per sample, an
// edge is present with exactly probability p.
type Lazy struct {
	z  int
	r  rng.SplitMix64
	sc scratch
	// nextOn[eid] is the next sample index (1-based) at which the edge
	// will be present; 0 means not yet initialized for this query.
	nextOn []int64
	sample int64
	canceller
}

// NewLazy returns a lazy-propagation sampler drawing z worlds per query.
func NewLazy(z int, seed int64) *Lazy {
	return &Lazy{z: z, r: rng.NewSplitMix64(seed)}
}

// Name implements Sampler.
func (lz *Lazy) Name() string { return "lazy" }

// SampleSize implements Sampler.
func (lz *Lazy) SampleSize() int { return lz.z }

// SetSampleSize implements Sampler.
func (lz *Lazy) SetSampleSize(z int) { lz.z = z }

// Reseed implements Sampler. The geometric schedules are per-query state
// (reset by prepare), so restoring the RNG stream — an O(1) reset — is
// sufficient.
func (lz *Lazy) Reseed(seed int64) { lz.r.Seed(seed) }

// geometricSkip draws the number of additional samples until the edge is
// next present: Geometric(p) with support {1, 2, ...}. For p = 1 the edge
// is present every sample; for p = 0 it is never present (represented by a
// huge skip).
func (lz *Lazy) geometricSkip(p float64) int64 {
	if p >= 1 {
		return 1
	}
	if p <= 0 {
		return math.MaxInt64 / 4
	}
	u := lz.r.Float64()
	skip := int64(math.Ceil(math.Log(1-u) / math.Log(1-p)))
	if skip < 1 {
		skip = 1
	}
	return skip
}

func (lz *Lazy) prepare(c *ugraph.CSR) {
	lz.sc.reset(c.N(), c.EdgeIDBound())
	if cap(lz.nextOn) < c.EdgeIDBound() {
		lz.nextOn = make([]int64, c.EdgeIDBound())
	}
	lz.nextOn = lz.nextOn[:c.EdgeIDBound()]
	for i := range lz.nextOn {
		lz.nextOn[i] = 0
	}
	lz.sample = 0
}

// present decides the edge's state in the current sample, advancing its
// geometric schedule as needed; p is the edge's probability (handed in by
// the walk from the arc-aligned stream). Called at most once per
// (edge, sample); the caller memoizes via the epoch arrays.
func (lz *Lazy) present(p float64, eid int32) bool {
	next := lz.nextOn[eid]
	if next == 0 {
		// First examination ever: schedule relative to the sample
		// before this one.
		next = lz.sample - 1 + lz.geometricSkip(p)
	}
	for next < lz.sample {
		next += lz.geometricSkip(p)
	}
	lz.nextOn[eid] = next
	return next == lz.sample
}

// Reliability implements Sampler.
func (lz *Lazy) Reliability(g *ugraph.Graph, s, t ugraph.NodeID) float64 {
	return lz.ReliabilityCSR(g.Freeze(), s, t)
}

// ReliabilityCSR implements CSRSampler.
func (lz *Lazy) ReliabilityCSR(c *ugraph.CSR, s, t ugraph.NodeID) float64 {
	if s == t {
		return 1
	}
	lz.prepare(c)
	hits := 0
	for i := 0; i < lz.z; i++ {
		if i&(ctxCheckBlock-1) == 0 && lz.cancelled() {
			if i == 0 {
				return 0
			}
			return float64(hits) / float64(i)
		}
		lz.sample++
		if lz.walk(c, s, t, true, nil) {
			hits++
		}
	}
	return float64(hits) / float64(lz.z)
}

// ReliabilityFrom implements Sampler.
func (lz *Lazy) ReliabilityFrom(g *ugraph.Graph, s ugraph.NodeID) []float64 {
	return lz.vector(g.Freeze(), s, true)
}

// ReliabilityTo implements Sampler.
func (lz *Lazy) ReliabilityTo(g *ugraph.Graph, t ugraph.NodeID) []float64 {
	return lz.vector(g.Freeze(), t, false)
}

// ReliabilityFromCSR implements CSRSampler.
func (lz *Lazy) ReliabilityFromCSR(c *ugraph.CSR, s ugraph.NodeID) []float64 {
	return lz.vector(c, s, true)
}

// ReliabilityToCSR implements CSRSampler.
func (lz *Lazy) ReliabilityToCSR(c *ugraph.CSR, t ugraph.NodeID) []float64 {
	return lz.vector(c, t, false)
}

func (lz *Lazy) vector(c *ugraph.CSR, src ugraph.NodeID, forward bool) []float64 {
	lz.prepare(c)
	counts := make([]float64, c.N())
	drawn := lz.z
	for i := 0; i < lz.z; i++ {
		if i&(ctxCheckBlock-1) == 0 && lz.cancelled() {
			drawn = i
			break
		}
		lz.sample++
		lz.walk(c, src, -1, forward, counts)
	}
	if drawn == 0 {
		return counts
	}
	inv := 1 / float64(drawn)
	for i := range counts {
		counts[i] *= inv
	}
	return counts
}

// walk mirrors sampledWalk but consults the geometric schedule. There is a
// subtlety shared with the plain sampler: an edge's state must be decided
// at most once per sample, which the epoch memo guarantees — otherwise the
// geometric schedule would advance twice.
func (lz *Lazy) walk(c *ugraph.CSR, src, t ugraph.NodeID, forward bool, counts []float64) bool {
	sc := &lz.sc
	sc.nextEpoch()
	sc.queue = sc.queue[:0]
	sc.queue = append(sc.queue, src)
	sc.nodeEp[src] = sc.epoch
	if counts != nil {
		counts[src]++
	}
	hasX := c.HasOverlay()
	for head := 0; head < len(sc.queue); head++ {
		u := sc.queue[head]
		var arcs, extra []ugraph.Arc
		var probs, xprobs []float64
		if forward {
			arcs, probs = c.Out(u), c.OutProbs(u)
			if hasX {
				extra, xprobs = c.OutOverlay(u), c.OutOverlayProbs(u)
			}
		} else {
			arcs, probs = c.In(u), c.InProbs(u)
			if hasX {
				extra, xprobs = c.InOverlay(u), c.InOverlayProbs(u)
			}
		}
		for {
			for i, a := range arcs {
				if sc.nodeEp[a.To] == sc.epoch {
					continue
				}
				if st := sc.edgeSt[a.EID]; st != sc.epoch && st != -sc.epoch {
					if lz.present(probs[i], a.EID) {
						sc.edgeSt[a.EID] = sc.epoch
					} else {
						sc.edgeSt[a.EID] = -sc.epoch
						continue
					}
				} else if st != sc.epoch {
					continue
				}
				sc.nodeEp[a.To] = sc.epoch
				if a.To == t {
					return true
				}
				if counts != nil {
					counts[a.To]++
				}
				sc.queue = append(sc.queue, a.To)
			}
			if len(extra) == 0 {
				break
			}
			arcs, probs, extra = extra, xprobs, nil
		}
	}
	return false
}
