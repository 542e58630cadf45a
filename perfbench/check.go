package main

import (
	"encoding/json"
	"fmt"
	"slices"

	"repro"
)

type edgeJSON struct {
	U int32   `json:"u"`
	V int32   `json:"v"`
	P float64 `json:"p"`
}

// solvePayload is relmaxd's /v1/solve response without the timing block.
type solvePayload struct {
	Epoch      uint64     `json:"epoch"`
	Method     string     `json:"method"`
	Edges      []edgeJSON `json:"edges"`
	Base       float64    `json:"base"`
	After      float64    `json:"after"`
	Gain       float64    `json:"gain"`
	Candidates int        `json:"candidates"`
	Paths      int        `json:"paths"`
}

// multiPayload is a finished multi job's GET /v2/jobs/{id} response.
type multiPayload struct {
	Status string `json:"status"`
	Epoch  uint64 `json:"epoch"`
	Error  string `json:"error"`
	Result struct {
		Epoch     uint64     `json:"epoch"`
		Aggregate string     `json:"aggregate"`
		Edges     []edgeJSON `json:"edges"`
		Base      float64    `json:"base"`
		After     float64    `json:"after"`
		Gain      float64    `json:"gain"`
	} `json:"result"`
}

// estimatePayload is relmaxd's /v1/estimate response.
type estimatePayload struct {
	Epoch         uint64    `json:"epoch"`
	Reliabilities []float64 `json:"reliabilities"`
	Lo            []float64 `json:"lo"`
	Hi            []float64 `json:"hi"`
	SamplesUsed   []int     `json:"samples_used"`
	StopReasons   []string  `json:"stop_reasons"`
	Precision     float64   `json:"precision"`
}

type mutatePayload struct {
	Epoch   uint64 `json:"epoch"`
	Applied int    `json:"applied"`
}

func decode(b []byte, v any) error {
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("bad payload %q: %w", b, err)
	}
	return nil
}

func inUnit(x float64) bool { return x >= 0 && x <= 1 }

// checkEdges verifies a solver answer proposes at most k edges, none of
// them already in the graph, each with a probability in [0,1].
func checkEdges(g *repro.Graph, edges []edgeJSON) error {
	if len(edges) > solveK {
		return fmt.Errorf("%d edges for budget k=%d", len(edges), solveK)
	}
	for _, e := range edges {
		if g.HasEdge(e.U, e.V) {
			return fmt.Errorf("proposed edge %d-%d is already in the graph", e.U, e.V)
		}
		if !inUnit(e.P) {
			return fmt.Errorf("edge %d-%d probability %v outside [0,1]", e.U, e.V, e.P)
		}
	}
	return nil
}

// checkSchema validates one successful read response on its own.
// wantEpoch, when non-nil, is the only epoch the response may report.
func checkSchema(g *repro.Graph, s sample, wantEpoch *uint64) error {
	var epoch uint64
	switch s.op.Kind {
	case kindSolve:
		var p solvePayload
		if err := decode(s.body, &p); err != nil {
			return err
		}
		if err := checkEdges(g, p.Edges); err != nil {
			return err
		}
		if !inUnit(p.Base) || !inUnit(p.After) {
			return fmt.Errorf("reliability outside [0,1]: base %v after %v", p.Base, p.After)
		}
		epoch = p.Epoch
	case kindMulti:
		var p multiPayload
		if err := decode(s.body, &p); err != nil {
			return err
		}
		if p.Status != string(repro.JobDone) {
			return fmt.Errorf("multi job ended %q: %s", p.Status, p.Error)
		}
		if err := checkEdges(g, p.Result.Edges); err != nil {
			return err
		}
		if !inUnit(p.Result.Base) || !inUnit(p.Result.After) {
			return fmt.Errorf("reliability outside [0,1]: base %v after %v", p.Result.Base, p.Result.After)
		}
		epoch = p.Epoch
	case kindEstimate:
		var p estimatePayload
		if err := decode(s.body, &p); err != nil {
			return err
		}
		if len(p.Reliabilities) != 1 || len(p.Lo) != 1 || len(p.Hi) != 1 || len(p.SamplesUsed) != 1 || len(p.StopReasons) != 1 {
			return fmt.Errorf("estimate of one pair returned %d values", len(p.Reliabilities))
		}
		r, lo, hi := p.Reliabilities[0], p.Lo[0], p.Hi[0]
		if !inUnit(r) || !inUnit(lo) || !inUnit(hi) || lo > r || r > hi {
			return fmt.Errorf("estimate %v outside its interval [%v,%v] or [0,1]", r, lo, hi)
		}
		if p.SamplesUsed[0] <= 0 {
			return fmt.Errorf("estimate drew %d samples", p.SamplesUsed[0])
		}
		epoch = p.Epoch
	default:
		return fmt.Errorf("no read schema for %s", s.op.Kind)
	}
	if wantEpoch != nil && epoch != *wantEpoch {
		return fmt.Errorf("served at epoch %d, want %d", epoch, *wantEpoch)
	}
	return nil
}

// checkWrites verifies the ordered write lane: each acknowledged batch
// advances the epoch by exactly its size, starting from epoch0. It
// returns the final epoch.
func checkWrites(writes []sample, epoch0 uint64) (uint64, error) {
	epoch := epoch0
	for _, s := range writes {
		if !s.ok() {
			return epoch, fmt.Errorf("write %d failed (status %d, %v): later epochs are unknown", s.op.Index, s.status, s.err)
		}
		var p mutatePayload
		if err := decode(s.body, &p); err != nil {
			return epoch, err
		}
		want := epoch + uint64(len(s.op.Muts))
		if p.Epoch != want || p.Applied != len(s.op.Muts) {
			return epoch, fmt.Errorf("write %d of %d edits: epoch %d applied %d, want epoch %d", s.op.Index, len(s.op.Muts), p.Epoch, p.Applied, want)
		}
		epoch = want
	}
	return epoch, nil
}

func edgesOf(es []repro.Edge) []edgeJSON {
	out := make([]edgeJSON, len(es))
	for i, e := range es {
		out[i] = edgeJSON{U: e.U, V: e.V, P: e.P}
	}
	return out
}

// checkSame verifies an HTTP payload carries exactly the values of the
// in-process Result for the same query at the same epoch; float fields
// must match bit for bit.
func checkSame(s sample, res repro.Result, epoch uint64) error {
	switch s.op.Kind {
	case kindSolve:
		var p solvePayload
		if err := decode(s.body, &p); err != nil {
			return err
		}
		sol := res.Solution
		want := solvePayload{Epoch: epoch, Method: string(sol.Method), Edges: edgesOf(sol.Edges),
			Base: sol.Base, After: sol.After, Gain: sol.Gain, Candidates: sol.CandidateCount, Paths: sol.PathCount}
		if p.Epoch != want.Epoch || p.Method != want.Method || !slices.Equal(p.Edges, want.Edges) ||
			p.Base != want.Base || p.After != want.After || p.Gain != want.Gain ||
			p.Candidates != want.Candidates || p.Paths != want.Paths {
			return fmt.Errorf("solve %d-%d: HTTP %+v, in-process %+v", s.op.S, s.op.T, p, want)
		}
	case kindMulti:
		var p multiPayload
		if err := decode(s.body, &p); err != nil {
			return err
		}
		m := res.Multi
		if p.Epoch != epoch || p.Result.Aggregate != string(m.Aggregate) || !slices.Equal(p.Result.Edges, edgesOf(m.Edges)) ||
			p.Result.Base != m.Base || p.Result.After != m.After || p.Result.Gain != m.Gain {
			return fmt.Errorf("multi %v->%v: HTTP %+v, in-process %+v", s.op.Sources, s.op.Targets, p.Result, m)
		}
	case kindEstimate:
		var p estimatePayload
		if err := decode(s.body, &p); err != nil {
			return err
		}
		if len(res.AnytimeMany) != 1 {
			return fmt.Errorf("in-process estimate returned %d intervals", len(res.AnytimeMany))
		}
		a := res.AnytimeMany[0]
		if p.Epoch != epoch || !slices.Equal(p.Reliabilities, res.Reliabilities) ||
			p.Lo[0] != a.Lo || p.Hi[0] != a.Hi || p.SamplesUsed[0] != a.SamplesUsed ||
			p.StopReasons[0] != a.StopReason || p.Precision != a.Precision {
			return fmt.Errorf("estimate %d-%d: HTTP %+v, in-process %+v %+v", s.op.S, s.op.T, p, res.Reliabilities, a)
		}
	default:
		return fmt.Errorf("no comparison for %s", s.op.Kind)
	}
	return nil
}
