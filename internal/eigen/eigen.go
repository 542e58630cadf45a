// Package eigen implements the spectral machinery for the eigenvalue-based
// baseline of §3.4 (Algorithm 2, after Chen et al. TKDD'16): power
// iteration for the leading eigenvalue with its left and right
// eigenvectors of the probability-weighted adjacency matrix, and the
// eigen-score edge-addition rule.
package eigen

import (
	"context"
	"math"

	"repro/internal/pq"
	"repro/internal/ugraph"
)

// Leading computes the leading eigenvalue λ of the adjacency matrix
// A[u][v] = p(u→v) together with the associated right eigenvector v
// (A·v = λv) and left eigenvector u (Aᵀ·u = λu), via power iteration.
// Vectors are L2-normalized and non-negative (Perron-Frobenius). For
// undirected graphs the two vectors coincide. iters bounds the iteration
// count (<=0 uses 200); convergence stops early at 1e-12 relative change.
// The power iterations poll ctx (nil allowed) once per sweep; cancellation
// stops at the current iterate — a valid but unconverged vector that
// callers observing ctx.Err() discard.
func Leading(ctx context.Context, c *ugraph.CSR, iters int) (lambda float64, left, right []float64) {
	if iters <= 0 {
		iters = 200
	}
	edges := c.Edges()
	right = powerIteration(ctx, c.N(), c.Directed(), edges, iters, false)
	if c.Directed() {
		left = powerIteration(ctx, c.N(), c.Directed(), edges, iters, true)
	} else {
		left = append([]float64(nil), right...)
	}
	// Rayleigh quotient λ = rᵀ A r for the normalized right vector.
	lambda = 0
	for _, e := range edges {
		lambda += right[e.U] * e.P * right[e.V]
		if !c.Directed() {
			lambda += right[e.V] * e.P * right[e.U]
		}
	}
	return lambda, left, right
}

// powerIteration returns the normalized dominant eigenvector of A
// (transpose=false) or Aᵀ (transpose=true) over n nodes and the given
// edge list.
func powerIteration(ctx context.Context, n int, directed bool, edges []ugraph.Edge, iters int, transpose bool) []float64 {
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = 1 / math.Sqrt(float64(n))
	}
	for it := 0; it < iters; it++ {
		if ctx != nil && ctx.Err() != nil {
			break
		}
		for i := range y {
			y[i] = 0
		}
		for _, e := range edges {
			if directed {
				if transpose {
					y[e.U] += e.P * x[e.V]
				} else {
					y[e.V] += e.P * x[e.U]
				}
			} else {
				y[e.V] += e.P * x[e.U]
				y[e.U] += e.P * x[e.V]
			}
		}
		norm := 0.0
		for _, v := range y {
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			return y // no edges: zero vector
		}
		diff := 0.0
		for i := range y {
			y[i] /= norm
			d := y[i] - x[i]
			diff += d * d
		}
		x, y = y, x
		if diff < 1e-24 {
			break
		}
	}
	return x
}

// ScoredEdge is a potential new edge with its eigen-score u(i)·v(j).
type ScoredEdge struct {
	U, V  ugraph.NodeID
	Score float64
}

// TopEdges implements Algorithm 2: it selects the k missing edges that
// maximize the leading-eigenvalue gain approximation Σ u(i)·v(j), drawing
// left endpoints from the top-(k+din) nodes by left eigen-score and right
// endpoints from the top-(k+dout) nodes by right eigen-score, where din and
// dout are the maximum in- and out-degrees.
func TopEdges(ctx context.Context, c *ugraph.CSR, k int) []ScoredEdge {
	if k <= 0 {
		return nil
	}
	_, left, right := Leading(ctx, c, 0)
	din, dout := maxDegrees(c)
	srcPool := topNodes(left, k+din)
	dstPool := topNodes(right, k+dout)
	sel := pq.NewTopK[ScoredEdge](k)
	for _, i := range srcPool {
		for _, j := range dstPool {
			if i == j || c.HasEdge(i, j) {
				continue
			}
			score := left[i] * right[j]
			sel.Offer(score, ScoredEdge{U: i, V: j, Score: score})
		}
	}
	items := sel.Items()
	out := make([]ScoredEdge, len(items))
	for i, it := range items {
		out[i] = it.Value
	}
	return out
}

func maxDegrees(c *ugraph.CSR) (din, dout int) {
	for v := ugraph.NodeID(0); int(v) < c.N(); v++ {
		if d := len(c.Out(v)) + len(c.OutOverlay(v)); d > dout {
			dout = d
		}
		if d := len(c.In(v)) + len(c.InOverlay(v)); d > din {
			din = d
		}
	}
	return din, dout
}

func topNodes(scores []float64, k int) []ugraph.NodeID {
	sel := pq.NewTopK[ugraph.NodeID](k)
	for v, s := range scores {
		sel.Offer(s, ugraph.NodeID(v))
	}
	items := sel.Items()
	out := make([]ugraph.NodeID, len(items))
	for i, it := range items {
		out[i] = it.Value
	}
	return out
}
