package ugraph

import "fmt"

// CSR is a frozen, cache-friendly snapshot of a Graph: the slice-of-slices
// adjacency is flattened into one contiguous arc array per direction with
// int32 offsets, so the samplers' BFS inner loops walk sequential memory
// instead of chasing per-node slice headers. A CSR is immutable — every
// method is safe for concurrent use by any number of goroutines — and is
// obtained from Graph.Freeze (a cached full snapshot), CSR.Delta (a
// persistent epoch layered over a snapshot) or CSR.WithEdges (a
// lightweight overlay view sharing the base arrays).
//
// Arc order is preserved exactly from the source Graph (insertion order per
// node, overlay arcs after base arcs), so a sampler consuming randomness
// while traversing a CSR draws the same coin sequence as the historical
// slice-of-slices traversal: estimates are bit-identical at the same seed.
type CSR struct {
	directed bool
	n        int
	epoch    uint64    // Graph.Version at freeze time; overlays inherit it
	p        []float64 // probability per base edge ID
	ends     []Edge    // endpoints per base edge ID
	outArcs  []Arc     // concatenated out-adjacency rows
	outP     []float64 // outP[i] == p[outArcs[i].EID]: arc-aligned probabilities
	outOff   []int32   // len n+1; row u is outArcs[outOff[u]:outOff[u+1]]
	inArcs   []Arc     // directed only; nil when undirected
	inP      []float64
	inOff    []int32

	// Overlay fields; empty for a base snapshot. Extra edges carry IDs
	// addBase()..addBase()+len(xp)-1 (past the base array and any delta
	// adds) and their arcs are grouped per node in the tiny xOut*/xIn*
	// arrays, found by linear scan (overlays hold a handful of edges — one
	// candidate, or one solution set).
	xp       []float64
	xends    []Edge
	xOutNode []NodeID
	xOutOff  []int32 // len(xOutNode)+1
	xOutArcs []Arc
	xOutP    []float64
	xInNode  []NodeID
	xInOff   []int32
	xInArcs  []Arc
	xInP     []float64

	// d carries the persistent delta layer of a layered epoch snapshot
	// (see delta.go); nil for flat snapshots, so the walk entry points pay
	// one predictable nil check on the flat fast path.
	d *deltaState
}

// Freeze returns an immutable CSR snapshot of g, building it on first use
// and caching it until the next mutation (AddEdge or SetProb invalidate the
// cache; snapshots already handed out stay valid and unchanged). Freeze is
// safe to call from concurrent readers; mutating g concurrently with Freeze
// or with traversals is not (the same single-writer contract as every other
// Graph method).
func (g *Graph) Freeze() *CSR {
	if c := g.frozen.Load(); c != nil {
		return c
	}
	c := newCSR(g)
	// Two racing freezers may both build; the CAS keeps one winner so
	// steady-state callers share a single snapshot (and allocate nothing).
	if !g.frozen.CompareAndSwap(nil, c) {
		if w := g.frozen.Load(); w != nil {
			return w
		}
	}
	return c
}

func newCSR(g *Graph) *CSR {
	c := &CSR{
		directed: g.directed,
		n:        g.n,
		epoch:    g.version,
		p:        append([]float64(nil), g.p...),
		ends:     append([]Edge(nil), g.ends...),
	}
	c.outArcs, c.outP, c.outOff = flattenRows(g.out, g.p)
	if g.directed {
		c.inArcs, c.inP, c.inOff = flattenRows(g.in, g.p)
	}
	return c
}

// flattenRows concatenates the adjacency rows and duplicates each arc's
// edge probability alongside it: the samplers' coin flips then read the
// probability from the stream they are already traversing instead of a
// random access into the per-edge array.
func flattenRows(rows [][]Arc, p []float64) ([]Arc, []float64, []int32) {
	total := 0
	for _, row := range rows {
		total += len(row)
	}
	arcs := make([]Arc, 0, total)
	probs := make([]float64, 0, total)
	off := make([]int32, len(rows)+1)
	for u, row := range rows {
		arcs = append(arcs, row...)
		for _, a := range row {
			probs = append(probs, p[a.EID])
		}
		off[u+1] = int32(len(arcs))
	}
	return arcs, probs, off
}

// N returns the number of nodes.
func (c *CSR) N() int { return c.n }

// M returns the number of live edges, including overlay edges. On layered
// snapshots this is the logical count (base minus removed plus added); edge
// IDs may exceed it — size per-edge scratch with EdgeIDBound.
func (c *CSR) M() int {
	if c.d != nil {
		return c.d.m + len(c.xp)
	}
	return len(c.p) + len(c.xp)
}

// Directed reports whether the snapshot is of a directed graph.
func (c *CSR) Directed() bool { return c.directed }

// Epoch returns the source graph's Version at freeze time — the identity
// of this snapshot in an epoch-versioned serving tier (see repro.Engine).
// Overlay views report the epoch of their base snapshot: they are
// ephemeral per-candidate scratch, not new graph states.
func (c *CSR) Epoch() uint64 { return c.epoch }

// Prob returns the existence probability of edge eid (base, delta or
// overlay).
func (c *CSR) Prob(eid int32) float64 {
	if c.d != nil {
		return c.deltaProb(eid)
	}
	if int(eid) < len(c.p) {
		return c.p[eid]
	}
	return c.xp[int(eid)-len(c.p)]
}

// Endpoints returns the edge descriptor of eid (base, delta or overlay).
func (c *CSR) Endpoints(eid int32) Edge {
	if c.d != nil {
		return c.deltaEndpoints(eid)
	}
	if int(eid) < len(c.ends) {
		return c.ends[eid]
	}
	return c.xends[int(eid)-len(c.ends)]
}

// Out returns the frozen out-adjacency row of u, excluding overlay arcs.
// Callers must not modify the slice. Complete iteration over an overlay
// view visits Out(u) then OutOverlay(u), matching the arc order of the
// equivalent mutable Graph.
func (c *CSR) Out(u NodeID) []Arc {
	if c.d == nil {
		return c.outArcs[c.outOff[u]:c.outOff[u+1]]
	}
	return c.deltaOut(u)
}

// OutProbs returns the probabilities aligned with Out(u): OutProbs(u)[i]
// is the existence probability of Out(u)[i]. Sampler inner loops read this
// instead of Prob to stay on the adjacency stream.
func (c *CSR) OutProbs(u NodeID) []float64 {
	if c.d == nil {
		return c.outP[c.outOff[u]:c.outOff[u+1]]
	}
	return c.deltaOutProbs(u)
}

// In returns the frozen in-adjacency row of u (arcs over which u is
// reached), excluding overlay arcs. For undirected graphs this is Out(u).
func (c *CSR) In(u NodeID) []Arc {
	if c.directed {
		if c.d == nil {
			return c.inArcs[c.inOff[u]:c.inOff[u+1]]
		}
		return c.deltaIn(u)
	}
	return c.Out(u)
}

// InProbs returns the probabilities aligned with In(u).
func (c *CSR) InProbs(u NodeID) []float64 {
	if c.directed {
		if c.d == nil {
			return c.inP[c.inOff[u]:c.inOff[u+1]]
		}
		return c.deltaInProbs(u)
	}
	return c.OutProbs(u)
}

// HasOverlay reports whether c is an overlay view carrying extra edges.
// Hot loops hoist this check and skip the OutOverlay/InOverlay probes on
// base snapshots.
func (c *CSR) HasOverlay() bool { return len(c.xp) > 0 }

// OutOverlay returns the overlay out-arcs of u (nil for base snapshots and
// untouched nodes).
func (c *CSR) OutOverlay(u NodeID) []Arc {
	lo, hi := overlayRow(c.xOutNode, c.xOutOff, u)
	return c.xOutArcs[lo:hi]
}

// OutOverlayProbs returns the probabilities aligned with OutOverlay(u).
func (c *CSR) OutOverlayProbs(u NodeID) []float64 {
	lo, hi := overlayRow(c.xOutNode, c.xOutOff, u)
	return c.xOutP[lo:hi]
}

// InOverlay returns the overlay in-arcs of u. For undirected graphs this is
// OutOverlay(u).
func (c *CSR) InOverlay(u NodeID) []Arc {
	if c.directed {
		lo, hi := overlayRow(c.xInNode, c.xInOff, u)
		return c.xInArcs[lo:hi]
	}
	return c.OutOverlay(u)
}

// InOverlayProbs returns the probabilities aligned with InOverlay(u).
func (c *CSR) InOverlayProbs(u NodeID) []float64 {
	if c.directed {
		lo, hi := overlayRow(c.xInNode, c.xInOff, u)
		return c.xInP[lo:hi]
	}
	return c.OutOverlayProbs(u)
}

func overlayRow(nodes []NodeID, off []int32, u NodeID) (int32, int32) {
	for i, v := range nodes {
		if v == u {
			return off[i], off[i+1]
		}
	}
	return 0, 0
}

// Degree returns the out-degree of u (total incident degree if undirected),
// including overlay arcs.
func (c *CSR) Degree(u NodeID) int { return len(c.Out(u)) + len(c.OutOverlay(u)) }

// HasEdge reports whether edge (u, v) exists in the snapshot (base or
// overlay). For undirected graphs the orientation is ignored. It scans the
// adjacency row of u — O(degree), used by construction paths, not by
// sampling inner loops.
func (c *CSR) HasEdge(u, v NodeID) bool {
	_, ok := c.EdgeID(u, v)
	return ok
}

// EdgeID returns the edge ID of (u, v), if present.
func (c *CSR) EdgeID(u, v NodeID) (int32, bool) {
	if u < 0 || int(u) >= c.n || v < 0 || int(v) >= c.n {
		return -1, false
	}
	for _, a := range c.Out(u) {
		if a.To == v {
			return a.EID, true
		}
	}
	for _, a := range c.OutOverlay(u) {
		if a.To == v {
			return a.EID, true
		}
	}
	return -1, false
}

// WithEdges returns an overlay view of c with the given new edges added at
// the probabilities they carry, without copying the base arrays: building
// the view is O(extra · degree) for the duplicate checks, so candidate-
// evaluation loops can materialize one view per candidate instead of
// cloning and re-flattening the whole graph. Edges already present are
// skipped silently, mirroring Graph.WithEdges; invalid edges (self-loops,
// out-of-range endpoints, probabilities outside [0, 1]) panic, mirroring
// MustAddEdge on the clone path. Calling WithEdges on an overlay stacks the
// new edges over the same base.
func (c *CSR) WithEdges(extra []Edge) *CSR {
	if len(extra) == 0 && !c.HasOverlay() {
		return c
	}
	v := &CSR{
		directed: c.directed,
		n:        c.n,
		epoch:    c.epoch,
		p:        c.p,
		ends:     c.ends,
		outArcs:  c.outArcs,
		outP:     c.outP,
		outOff:   c.outOff,
		inArcs:   c.inArcs,
		inP:      c.inP,
		inOff:    c.inOff,
		d:        c.d,
		xp:       append([]float64(nil), c.xp...),
		xends:    append([]Edge(nil), c.xends...),
	}
	before := len(v.xp)
	for _, e := range extra {
		if e.U < 0 || int(e.U) >= c.n || e.V < 0 || int(e.V) >= c.n {
			panic(fmt.Sprintf("ugraph: overlay edge (%d,%d) out of range [0,%d)", e.U, e.V, c.n))
		}
		if e.U == e.V {
			panic(fmt.Sprintf("ugraph: overlay self-loop at node %d", e.U))
		}
		if !(e.P >= 0 && e.P <= 1) { // also rejects NaN
			panic(fmt.Sprintf("ugraph: overlay probability %v outside [0,1]", e.P))
		}
		if c.baseHasEdge(e.U, e.V) || hasPending(v.xends, c.directed, e.U, e.V) {
			continue
		}
		v.xp = append(v.xp, e.P)
		v.xends = append(v.xends, e)
	}
	if len(v.xp) == before {
		return c // every extra was a duplicate; the existing view is identical
	}
	v.buildOverlayRows()
	return v
}

// baseHasEdge checks the frozen snapshot rows — including any delta layer
// — but not overlay extras (those are checked against the pending list
// instead, preserving Graph.WithEdges's first-wins semantics).
func (c *CSR) baseHasEdge(u, v NodeID) bool {
	for _, a := range c.Out(u) {
		if a.To == v {
			return true
		}
	}
	return false
}

func hasPending(pending []Edge, directed bool, u, v NodeID) bool {
	for _, e := range pending {
		if e.U == u && e.V == v {
			return true
		}
		if !directed && e.U == v && e.V == u {
			return true
		}
	}
	return false
}

// buildOverlayRows groups the accepted extra edges' arcs per node,
// preserving insertion order within each node's row — the order a mutable
// Graph would have appended them in.
func (v *CSR) buildOverlayRows() {
	base := int32(v.addBase())
	var outFrom, inFrom []NodeID
	var outArc, inArc []Arc
	for i, e := range v.xends {
		eid := base + int32(i)
		outFrom = append(outFrom, e.U)
		outArc = append(outArc, Arc{To: e.V, EID: eid})
		if v.directed {
			inFrom = append(inFrom, e.V)
			inArc = append(inArc, Arc{To: e.U, EID: eid})
		} else {
			outFrom = append(outFrom, e.V)
			outArc = append(outArc, Arc{To: e.U, EID: eid})
		}
	}
	v.xOutNode, v.xOutOff, v.xOutArcs = groupArcs(outFrom, outArc)
	v.xOutP = v.alignProbs(v.xOutArcs)
	if v.directed {
		v.xInNode, v.xInOff, v.xInArcs = groupArcs(inFrom, inArc)
		v.xInP = v.alignProbs(v.xInArcs)
	}
}

func (v *CSR) alignProbs(arcs []Arc) []float64 {
	probs := make([]float64, len(arcs))
	for i, a := range arcs {
		probs[i] = v.Prob(a.EID)
	}
	return probs
}

// groupArcs stably groups (from[i] -> arc[i]) pairs by source node. The
// inputs are tiny (a few arcs), so the quadratic grouping is cheaper than
// sorting and keeps per-node insertion order trivially.
func groupArcs(from []NodeID, arc []Arc) ([]NodeID, []int32, []Arc) {
	var nodes []NodeID
	var off []int32
	var out []Arc
	done := make(map[NodeID]bool, len(from))
	for i, u := range from {
		if done[u] {
			continue
		}
		done[u] = true
		nodes = append(nodes, u)
		if off == nil {
			off = append(off, 0)
		}
		for j := i; j < len(from); j++ {
			if from[j] == u {
				out = append(out, arc[j])
			}
		}
		off = append(off, int32(len(out)))
	}
	return nodes, off, out
}

// HopDistances runs a BFS from src over the snapshot's topology — base,
// delta and overlay arcs alike — ignoring probabilities, and returns hop
// counts (-1 for unreachable nodes). maxHops < 0 means unbounded. The walk
// follows out-arcs; with ignoreDirection it follows in-arcs too, the
// "endpoints at most h hops apart" rule of candidate generation (the two
// coincide on undirected graphs).
func (c *CSR) HopDistances(src NodeID, maxHops int, ignoreDirection bool) []int32 {
	dist := make([]int32, c.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]NodeID, 0, c.n)
	queue = append(queue, src)
	both := ignoreDirection && c.directed
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		if maxHops >= 0 && int(dist[u]) >= maxHops {
			continue
		}
		rows := [4][]Arc{c.Out(u), c.OutOverlay(u)}
		if both {
			rows[2], rows[3] = c.In(u), c.InOverlay(u)
		}
		for _, arcs := range rows {
			for _, a := range arcs {
				if dist[a.To] < 0 {
					dist[a.To] = dist[u] + 1
					queue = append(queue, a.To)
				}
			}
		}
	}
	return dist
}

// Diameter returns the longest finite shortest-path hop distance (following
// out-arcs) over a sample of sources (all nodes if sample <= 0 or >= N). It
// is used by the dataset validators and by the h = diameter equivalence
// remark in §2.1.
func (c *CSR) Diameter(sample int) int {
	step := 1
	if sample > 0 && sample < c.n {
		step = c.n / sample
	}
	best := 0
	for u := 0; u < c.n; u += step {
		for _, d := range c.HopDistances(NodeID(u), -1, false) {
			if int(d) > best {
				best = int(d)
			}
		}
	}
	return best
}
