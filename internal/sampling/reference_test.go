package sampling

// This file preserves the pre-CSR, slice-of-slices sampling engine as a
// test-only reference implementation. The differential tests assert that
// the CSR-based estimators are BIT-IDENTICAL to this code at the same
// seed — traversal order, RNG consumption and float arithmetic all
// included — which is what makes the CSR refactor safe to build on: any
// future change to the hot path that silently alters an estimate fails
// these tests immediately.
//
// The engine is kept verbatim except for two deliberate ports that track
// the live samplers' contract: it draws one Float64 per coin flip from
// the same rng.SplitMix64 stream, and the RSS results are capped at 1 at
// the estimator boundary.

import (
	"math"

	"repro/internal/rng"
	"repro/internal/ugraph"
)

// refScratch is the legacy scratch layout (separate epoch and state
// arrays).
type refScratch struct {
	epoch  int32
	nodeEp []int32
	edgeEp []int32
	edgeOn []bool
	queue  []ugraph.NodeID
}

// reset mirrors the live scratch.reset, including the fix for the stale-
// mark bug the original slice-of-slices engine shipped with (an epoch
// restart must clear every mark array, not just the one that grew).
func (sc *refScratch) reset(n, m int) {
	if len(sc.nodeEp) < n || len(sc.edgeEp) < m {
		if len(sc.nodeEp) < n {
			sc.nodeEp = make([]int32, n)
		} else {
			clear(sc.nodeEp)
		}
		if len(sc.edgeEp) < m {
			sc.edgeEp = make([]int32, m)
			sc.edgeOn = make([]bool, m)
		} else {
			clear(sc.edgeEp)
		}
		sc.epoch = 0
	}
	if cap(sc.queue) < n {
		sc.queue = make([]ugraph.NodeID, 0, n)
	}
}

func (sc *refScratch) nextEpoch() {
	sc.epoch++
	if sc.epoch <= 0 {
		for i := range sc.nodeEp {
			sc.nodeEp[i] = 0
		}
		for i := range sc.edgeEp {
			sc.edgeEp[i] = 0
		}
		sc.epoch = 1
	}
}

func refSampledWalk(sc *refScratch, r *rng.SplitMix64, g *ugraph.Graph, src, t ugraph.NodeID, forward bool, counts []float64, status []int8) bool {
	sc.nextEpoch()
	sc.queue = sc.queue[:0]
	sc.queue = append(sc.queue, src)
	sc.nodeEp[src] = sc.epoch
	if counts != nil {
		counts[src]++
	}
	for head := 0; head < len(sc.queue); head++ {
		u := sc.queue[head]
		var arcs []ugraph.Arc
		if forward {
			arcs = g.Out(u)
		} else {
			arcs = g.In(u)
		}
		for _, a := range arcs {
			if sc.nodeEp[a.To] == sc.epoch {
				continue
			}
			if status != nil {
				switch status[a.EID] {
				case 1:
					goto traverse
				case -1:
					continue
				}
			}
			if sc.edgeEp[a.EID] != sc.epoch {
				sc.edgeEp[a.EID] = sc.epoch
				sc.edgeOn[a.EID] = r.Float64() < g.Prob(a.EID)
			}
			if !sc.edgeOn[a.EID] {
				continue
			}
		traverse:
			sc.nodeEp[a.To] = sc.epoch
			if a.To == t {
				return true
			}
			if counts != nil {
				counts[a.To]++
			}
			sc.queue = append(sc.queue, a.To)
		}
	}
	return false
}

func refDeterministicReach(sc *refScratch, g *ugraph.Graph, src ugraph.NodeID, forward bool, status []int8, optimistic bool) []ugraph.NodeID {
	sc.nextEpoch()
	sc.queue = sc.queue[:0]
	sc.queue = append(sc.queue, src)
	sc.nodeEp[src] = sc.epoch
	for head := 0; head < len(sc.queue); head++ {
		u := sc.queue[head]
		var arcs []ugraph.Arc
		if forward {
			arcs = g.Out(u)
		} else {
			arcs = g.In(u)
		}
		for _, a := range arcs {
			if sc.nodeEp[a.To] == sc.epoch {
				continue
			}
			st := status[a.EID]
			if st == 1 || (optimistic && st == 0) {
				sc.nodeEp[a.To] = sc.epoch
				sc.queue = append(sc.queue, a.To)
			}
		}
	}
	return sc.queue
}

// refMonteCarlo is the legacy MonteCarlo sampler.
type refMonteCarlo struct {
	z  int
	r  rng.SplitMix64
	sc refScratch
}

func newRefMonteCarlo(z int, seed int64) *refMonteCarlo {
	return &refMonteCarlo{z: z, r: rng.NewSplitMix64(seed)}
}

func (mc *refMonteCarlo) Reliability(g *ugraph.Graph, s, t ugraph.NodeID) float64 {
	if s == t {
		return 1
	}
	mc.sc.reset(g.N(), g.M())
	hits := 0
	for i := 0; i < mc.z; i++ {
		if refSampledWalk(&mc.sc, &mc.r, g, s, t, true, nil, nil) {
			hits++
		}
	}
	return float64(hits) / float64(mc.z)
}

func (mc *refMonteCarlo) ReliabilityFrom(g *ugraph.Graph, s ugraph.NodeID) []float64 {
	return mc.vector(g, s, true)
}

func (mc *refMonteCarlo) ReliabilityTo(g *ugraph.Graph, t ugraph.NodeID) []float64 {
	return mc.vector(g, t, false)
}

func (mc *refMonteCarlo) vector(g *ugraph.Graph, src ugraph.NodeID, forward bool) []float64 {
	mc.sc.reset(g.N(), g.M())
	counts := make([]float64, g.N())
	for i := 0; i < mc.z; i++ {
		refSampledWalk(&mc.sc, &mc.r, g, src, -1, forward, counts, nil)
	}
	inv := 1 / float64(mc.z)
	for i := range counts {
		counts[i] *= inv
	}
	return counts
}

// refRSS is the legacy RSS sampler (slice-allocating boundary collection).
type refRSS struct {
	z         int
	width     int
	threshold int
	r         rng.SplitMix64
	sc        refScratch
	status    []int8
}

func newRefRSS(z int, seed int64) *refRSS {
	return &refRSS{z: z, width: DefaultRSSWidth, threshold: DefaultRSSThreshold, r: rng.NewSplitMix64(seed)}
}

func (rs *refRSS) prepare(g *ugraph.Graph) {
	rs.sc.reset(g.N(), g.M())
	if cap(rs.status) < g.M() {
		rs.status = make([]int8, g.M())
	}
	rs.status = rs.status[:g.M()]
	for i := range rs.status {
		rs.status[i] = 0
	}
}

func (rs *refRSS) Reliability(g *ugraph.Graph, s, t ugraph.NodeID) float64 {
	if s == t {
		return 1
	}
	rs.prepare(g)
	return clampUnit(rs.recurse(g, s, t, rs.z))
}

func (rs *refRSS) ReliabilityFrom(g *ugraph.Graph, s ugraph.NodeID) []float64 {
	acc := make([]float64, g.N())
	rs.prepare(g)
	rs.recurseVec(g, s, true, rs.z, 1.0, acc)
	return clampUnits(acc)
}

func (rs *refRSS) ReliabilityTo(g *ugraph.Graph, t ugraph.NodeID) []float64 {
	acc := make([]float64, g.N())
	rs.prepare(g)
	rs.recurseVec(g, t, false, rs.z, 1.0, acc)
	return clampUnits(acc)
}

func (rs *refRSS) boundary(g *ugraph.Graph, reach []ugraph.NodeID, forward bool) []int32 {
	var edges []int32
	for _, u := range reach {
		var arcs []ugraph.Arc
		if forward {
			arcs = g.Out(u)
		} else {
			arcs = g.In(u)
		}
		for _, a := range arcs {
			if rs.sc.nodeEp[a.To] == rs.sc.epoch {
				continue
			}
			if rs.status[a.EID] != 0 {
				continue
			}
			edges = append(edges, a.EID)
			if len(edges) >= rs.width {
				return edges
			}
		}
	}
	return edges
}

func (rs *refRSS) recurse(g *ugraph.Graph, s, t ugraph.NodeID, budget int) float64 {
	reach := refDeterministicReach(&rs.sc, g, s, true, rs.status, false)
	if rs.sc.nodeEp[t] == rs.sc.epoch {
		return 1
	}
	edges := rs.boundary(g, reach, true)
	if len(edges) == 0 {
		return 0
	}
	refDeterministicReach(&rs.sc, g, s, true, rs.status, true)
	if rs.sc.nodeEp[t] != rs.sc.epoch {
		return 0
	}
	if budget <= rs.threshold {
		z := budget
		if z < 1 {
			z = 1
		}
		hits := 0
		for i := 0; i < z; i++ {
			if refSampledWalk(&rs.sc, &rs.r, g, s, t, true, nil, rs.status) {
				hits++
			}
		}
		return float64(hits) / float64(z)
	}
	total := 0.0
	remaining := 1.0
	for i := 0; i <= len(edges); i++ {
		var pi float64
		if i < len(edges) {
			p := g.Prob(edges[i])
			pi = remaining * p
			rs.status[edges[i]] = 1
		} else {
			pi = remaining
		}
		if pi > 0 {
			total += pi * rs.recurse(g, s, t, int(pi*float64(budget)+0.5))
		}
		if i < len(edges) {
			rs.status[edges[i]] = -1
			remaining *= 1 - g.Prob(edges[i])
		}
	}
	for _, eid := range edges {
		rs.status[eid] = 0
	}
	return total
}

func (rs *refRSS) recurseVec(g *ugraph.Graph, src ugraph.NodeID, forward bool, budget int, weight float64, acc []float64) {
	reach := refDeterministicReach(&rs.sc, g, src, forward, rs.status, false)
	edges := rs.boundary(g, reach, forward)
	if len(edges) == 0 {
		for _, v := range reach {
			acc[v] += weight
		}
		return
	}
	if budget <= rs.threshold {
		z := budget
		if z < 1 {
			z = 1
		}
		w := weight / float64(z)
		for i := 0; i < z; i++ {
			refSampledWalk(&rs.sc, &rs.r, g, src, -1, forward, nil, rs.status)
			for _, v := range rs.sc.queue {
				acc[v] += w
			}
		}
		return
	}
	remaining := 1.0
	for i := 0; i <= len(edges); i++ {
		var pi float64
		if i < len(edges) {
			pi = remaining * g.Prob(edges[i])
			rs.status[edges[i]] = 1
		} else {
			pi = remaining
		}
		if pi > 0 {
			rs.recurseVec(g, src, forward, int(pi*float64(budget)+0.5), weight*pi, acc)
		}
		if i < len(edges) {
			rs.status[edges[i]] = -1
			remaining *= 1 - g.Prob(edges[i])
		}
	}
	for _, eid := range edges {
		rs.status[eid] = 0
	}
}

// refLazy is the legacy lazy-propagation sampler.
type refLazy struct {
	z      int
	r      rng.SplitMix64
	sc     refScratch
	nextOn []int64
	sample int64
}

func newRefLazy(z int, seed int64) *refLazy {
	return &refLazy{z: z, r: rng.NewSplitMix64(seed)}
}

func (lz *refLazy) geometricSkip(p float64) int64 {
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

func (lz *refLazy) prepare(g *ugraph.Graph) {
	lz.sc.reset(g.N(), g.M())
	if cap(lz.nextOn) < g.M() {
		lz.nextOn = make([]int64, g.M())
	}
	lz.nextOn = lz.nextOn[:g.M()]
	for i := range lz.nextOn {
		lz.nextOn[i] = 0
	}
	lz.sample = 0
}

func (lz *refLazy) present(g *ugraph.Graph, eid int32) bool {
	next := lz.nextOn[eid]
	if next == 0 {
		next = lz.sample - 1 + lz.geometricSkip(g.Prob(eid))
	}
	for next < lz.sample {
		next += lz.geometricSkip(g.Prob(eid))
	}
	lz.nextOn[eid] = next
	return next == lz.sample
}

func (lz *refLazy) Reliability(g *ugraph.Graph, s, t ugraph.NodeID) float64 {
	if s == t {
		return 1
	}
	lz.prepare(g)
	hits := 0
	for i := 0; i < lz.z; i++ {
		lz.sample++
		if lz.walk(g, s, t, true, nil) {
			hits++
		}
	}
	return float64(hits) / float64(lz.z)
}

func (lz *refLazy) ReliabilityFrom(g *ugraph.Graph, s ugraph.NodeID) []float64 {
	return lz.vector(g, s, true)
}

func (lz *refLazy) ReliabilityTo(g *ugraph.Graph, t ugraph.NodeID) []float64 {
	return lz.vector(g, t, false)
}

func (lz *refLazy) vector(g *ugraph.Graph, src ugraph.NodeID, forward bool) []float64 {
	lz.prepare(g)
	counts := make([]float64, g.N())
	for i := 0; i < lz.z; i++ {
		lz.sample++
		lz.walk(g, src, -1, forward, counts)
	}
	inv := 1 / float64(lz.z)
	for i := range counts {
		counts[i] *= inv
	}
	return counts
}

func (lz *refLazy) walk(g *ugraph.Graph, src, t ugraph.NodeID, forward bool, counts []float64) bool {
	sc := &lz.sc
	sc.nextEpoch()
	sc.queue = sc.queue[:0]
	sc.queue = append(sc.queue, src)
	sc.nodeEp[src] = sc.epoch
	if counts != nil {
		counts[src]++
	}
	for head := 0; head < len(sc.queue); head++ {
		u := sc.queue[head]
		var arcs []ugraph.Arc
		if forward {
			arcs = g.Out(u)
		} else {
			arcs = g.In(u)
		}
		for _, a := range arcs {
			if sc.nodeEp[a.To] == sc.epoch {
				continue
			}
			if sc.edgeEp[a.EID] != sc.epoch {
				sc.edgeEp[a.EID] = sc.epoch
				sc.edgeOn[a.EID] = lz.present(g, a.EID)
			}
			if !sc.edgeOn[a.EID] {
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
	}
	return false
}
