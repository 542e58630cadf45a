package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro"
)

// Server-side constants: relmaxd's default -seed builds every dataset, so
// the in-process replay loads the identical graph. The workload seed only
// drives the generated requests.
const serverSeed = 1

// Query parameters shared by every workload.
const (
	solveK, solveR, solveL = 3, 20, 10
	estimatePrecision      = 0.05
	estimateSampler        = "mcvec"
	zipfS                  = 1.2
	estimatePool           = 2000
	multiSize              = 3
	// solvePool and multiPool bound the distinct solve pairs and multi
	// instances a run can draw: several times what the slowest sized run
	// sends, so no solve or multi query repeats (and hits the cache).
	solvePool, multiPool = 4000, 300
	// probJitter is the largest relative change a set-prob edit makes to
	// an edge's starting probability.
	probJitter = 0.1
)

// kind names one request family; it is also the label of every per-kind
// counter and percentile the benchmark reports.
type kind string

const (
	kindSolve    kind = "solve"
	kindMulti    kind = "multi"
	kindEstimate kind = "estimate"
	kindMutate   kind = "mutate"
)

var allKinds = []kind{kindSolve, kindMulti, kindEstimate, kindMutate}

// workload is one traffic mix against one freshly started relmaxd.
type workload struct {
	name    string
	dataset string
	scale   float64
	// durable starts relmaxd with -data-dir, so mutations hit the WAL.
	durable bool
	// readLanes is the number of closed-loop read clients.
	readLanes int
	// multiShare and solveShare split the read stream; the rest are
	// estimates. A solve slot that is also a multi slot is a multi.
	multiShare, solveShare float64
	// writeRate is the mean of the Poisson write schedule in batches/s on
	// one ordered open-loop lane (0 = no writes).
	writeRate float64
	// maxBatch bounds the set-prob edits per batch (uniform in 1..maxBatch).
	maxBatch int
}

var workloads = []workload{
	{name: "solve", dataset: "lastfm", scale: 0.25, readLanes: 2, multiShare: 0.10, solveShare: 1},
	{name: "estimate-hot", dataset: "astopo", scale: 0.2, readLanes: 2},
	{name: "write-mix", dataset: "lastfm", scale: 0.25, durable: true, readLanes: 1,
		solveShare: 0.30, writeRate: 10, maxBatch: 16},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// mutation is one set-prob edit; its JSON form is relmaxd's wire shape.
type mutation struct {
	Op string  `json:"op"`
	U  int32   `json:"u"`
	V  int32   `json:"v"`
	P  float64 `json:"p"`
}

// op is one generated request. Index numbers the op within its lane's
// sequence (reads and writes are numbered separately).
type op struct {
	Index     int
	Kind      kind
	S, T      int32
	Sources   []int32
	Targets   []int32
	Aggregate string
	Muts      []mutation
	// Due is the scheduled send time of a write, as an offset from the
	// start of the write lane.
	Due time.Duration
}

// path is the HTTP endpoint the op is sent to.
func (o op) path(dataset string) string {
	switch o.Kind {
	case kindSolve:
		return "/v1/solve"
	case kindMulti:
		return "/v2/jobs"
	case kindEstimate:
		return "/v1/estimate"
	}
	return "/v2/datasets/" + dataset + "/mutations"
}

// body is the JSON request relmaxd receives for the op. Field order is
// fixed by the struct literals, so the bytes depend only on the op.
func (o op) body() []byte {
	var v any
	switch o.Kind {
	case kindSolve:
		v = struct {
			S      int32  `json:"s"`
			T      int32  `json:"t"`
			Method string `json:"method"`
			K      int    `json:"k"`
			R      int    `json:"r"`
			L      int    `json:"l"`
		}{o.S, o.T, "be", solveK, solveR, solveL}
	case kindMulti:
		v = struct {
			Kind      string  `json:"kind"`
			Sources   []int32 `json:"sources"`
			Targets   []int32 `json:"targets"`
			Aggregate string  `json:"aggregate"`
			Method    string  `json:"method"`
			K         int     `json:"k"`
			R         int     `json:"r"`
			L         int     `json:"l"`
		}{"multi", o.Sources, o.Targets, o.Aggregate, "be", solveK, solveR, solveL}
	case kindEstimate:
		v = struct {
			Pairs     [][2]int32 `json:"pairs"`
			Precision float64    `json:"precision"`
			Sampler   string     `json:"sampler"`
		}{[][2]int32{{o.S, o.T}}, estimatePrecision, estimateSampler}
	case kindMutate:
		v = struct {
			Mutations []mutation `json:"mutations"`
		}{o.Muts}
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only fixed struct types are marshalled
	}
	return b
}

// query is the engine query relmaxd builds from body(): the same fields
// through the same defaulting, so the in-process replay computes the
// identical canonical query.
func (o op) query() repro.Query {
	switch o.Kind {
	case kindSolve:
		return repro.Query{Kind: repro.QuerySolve, S: o.S, T: o.T, Method: "be",
			Options: &repro.Options{K: solveK, R: solveR, L: solveL}}
	case kindMulti:
		q := repro.Query{Kind: repro.QueryMulti, Aggregate: repro.Aggregate(o.Aggregate), Method: "be",
			Options: &repro.Options{K: solveK, R: solveR, L: solveL}}
		q.Sources = append(q.Sources, o.Sources...)
		q.Targets = append(q.Targets, o.Targets...)
		return q
	case kindEstimate:
		return repro.Query{Kind: repro.QueryEstimateMany, Pairs: []repro.PairQuery{{S: o.S, T: o.T}},
			Options: &repro.Options{Sampler: estimateSampler, Precision: estimatePrecision}}
	}
	panic("query of a " + string(o.Kind) + " op")
}

// mutations converts a write op to engine mutations.
func (o op) mutations() []repro.Mutation {
	out := make([]repro.Mutation, len(o.Muts))
	for i, m := range o.Muts {
		out[i] = repro.Mutation{Op: repro.MutationOp(m.Op), U: m.U, V: m.V, P: m.P}
	}
	return out
}

// plan holds everything generated from the workload seed: the read
// stream (drawn on demand, in a fixed order) and the write schedule.
type plan struct {
	w        workload
	solves   []repro.EvalQuery
	estimate []repro.EvalQuery
	multis   []repro.MultiQuery

	mu     sync.Mutex
	zipf   *rand.Zipf
	next   int
	nSolve int
	nMulti int

	writes []op
}

// newPlan generates the inputs of one run. The read stream is unbounded
// (closed-loop clients draw as fast as the server answers); the write
// schedule covers span.
func newPlan(w workload, g *repro.Graph, seed int64, span time.Duration) (*plan, error) {
	p := &plan{w: w}
	if w.solveShare > 0 {
		p.solves = distinctPairs(repro.Queries(g, solvePool, 3, 5, seed), 0)
	}
	if w.solveShare < 1 {
		p.estimate = distinctPairs(repro.Queries(g, 4*estimatePool, 3, 5, seed+1), estimatePool)
		if len(p.estimate) < estimatePool {
			return nil, fmt.Errorf("%s: only %d distinct estimate pairs, want %d", w.dataset, len(p.estimate), estimatePool)
		}
	}
	if w.multiShare > 0 {
		p.multis = repro.MultiQueries(g, multiPool, multiSize, seed+2)
		if len(p.multis) == 0 {
			return nil, fmt.Errorf("%s: no multi-source queries", w.dataset)
		}
	}
	p.zipf = rand.NewZipf(rand.New(rand.NewSource(seed+3)), zipfS, 1, estimatePool-1)
	if w.writeRate > 0 {
		p.writes = writeSchedule(g, w, seed+4, span)
	}
	return p, nil
}

// distinctPairs drops repeated pairs, keeping first occurrences in order,
// and stops at limit (0 = no limit).
func distinctPairs(qs []repro.EvalQuery, limit int) []repro.EvalQuery {
	seen := make(map[repro.EvalQuery]bool, len(qs))
	var out []repro.EvalQuery
	for _, q := range qs {
		if seen[q] {
			continue
		}
		seen[q] = true
		out = append(out, q)
		if limit > 0 && len(out) == limit {
			break
		}
	}
	return out
}

// take returns the next read op. The sequence depends only on the seed,
// not on which client draws it or when. Kinds are interleaved on a fixed
// pattern, so every window of the stream holds the workload's exact
// shares; only the pairs are random.
func (p *plan) take() op {
	p.mu.Lock()
	defer p.mu.Unlock()
	o := op{Index: p.next}
	p.next++
	switch {
	case every(o.Index, p.w.multiShare):
		m := p.multis[p.nMulti%len(p.multis)]
		o.Kind = kindMulti
		o.Sources = append([]int32(nil), m.Sources...)
		o.Targets = append([]int32(nil), m.Targets...)
		o.Aggregate = []string{"avg", "min", "max"}[p.nMulti%3]
		p.nMulti++
	case every(o.Index, p.w.solveShare):
		q := p.solves[p.nSolve%len(p.solves)]
		o.Kind, o.S, o.T = kindSolve, q.S, q.T
		p.nSolve++
	default:
		q := p.estimate[p.zipf.Uint64()]
		o.Kind, o.S, o.T = kindEstimate, q.S, q.T
	}
	return o
}

// every reports whether op i is one of the evenly spread share of ops:
// true for exactly floor(n*share) of the first n ops, for every n.
func every(i int, share float64) bool {
	return math.Floor(float64(i+1)*share) > math.Floor(float64(i)*share)
}

// exhausted reports whether the run drew more solves or multis than the
// pools hold, so some of them repeated.
func (p *plan) exhausted() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.nSolve > len(p.solves) || p.nMulti > len(p.multis)
}

// readStream replays a fixed list of read ops in order to several clients.
type readStream struct {
	mu   sync.Mutex
	ops  []op
	next int
}

func (r *readStream) take() (op, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.next == len(r.ops) {
		return op{}, false
	}
	r.next++
	return r.ops[r.next-1], true
}

// writeSchedule draws set-prob batches on a Poisson schedule over span:
// exponential gaps at w.writeRate per second, 1..w.maxBatch distinct
// existing edges per batch. Each edit sets the edge to its starting
// probability scaled by a factor in [1-probJitter, 1+probJitter] (at most
// 1), so the graph stays in the dataset's own regime for the whole run
// instead of drifting as edits accumulate.
func writeSchedule(g *repro.Graph, w workload, seed int64, span time.Duration) []op {
	r := rand.New(rand.NewSource(seed))
	edges := g.Edges()
	var out []op
	at := time.Duration(0)
	for {
		at += time.Duration(r.ExpFloat64() / w.writeRate * float64(time.Second))
		if at >= span {
			return out
		}
		n := 1 + r.Intn(w.maxBatch)
		picked := make(map[int]bool, n)
		muts := make([]mutation, 0, n)
		for len(muts) < n {
			i := r.Intn(len(edges))
			if picked[i] {
				continue
			}
			picked[i] = true
			e := edges[i]
			p := math.Min(1, e.P*(1+probJitter*(2*r.Float64()-1)))
			muts = append(muts, mutation{Op: "set-prob", U: e.U, V: e.V, P: p})
		}
		out = append(out, op{Index: len(out), Kind: kindMutate, Muts: muts, Due: at})
	}
}
