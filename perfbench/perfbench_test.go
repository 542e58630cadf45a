package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"repro"
	"repro/internal/store"
)

// requestBytes draws n read ops and the whole write schedule of a plan and
// returns every request exactly as relmaxd would receive it.
func requestBytes(t *testing.T, w workload, seed int64, n int) []byte {
	t.Helper()
	g, err := repro.LoadDataset(w.dataset, w.scale, serverSeed)
	if err != nil {
		t.Fatal(err)
	}
	p, err := newPlan(w, g, seed, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		o := p.take()
		buf.WriteString(o.path(w.dataset))
		buf.Write(o.body())
		buf.WriteByte('\n')
	}
	for _, o := range p.writes {
		buf.WriteString(o.Due.String())
		buf.Write(o.body())
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func TestGeneratorDeterministic(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := requestBytes(t, w, 7, 400)
			b := requestBytes(t, w, 7, 400)
			if !bytes.Equal(a, b) {
				t.Fatal("same seed gave different request bytes")
			}
			if c := requestBytes(t, w, 8, 400); bytes.Equal(a, c) {
				t.Fatal("different seeds gave identical request bytes")
			}
		})
	}
}

func TestGeneratorShares(t *testing.T) {
	g, err := repro.LoadDataset("lastfm", 0.25, serverSeed)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		workload string
		want     map[kind]int
	}{
		{"solve", map[kind]int{kindSolve: 900, kindMulti: 100}},
		{"write-mix", map[kind]int{kindSolve: 300, kindEstimate: 700}},
	} {
		w, err := workloadByName(tc.workload)
		if err != nil {
			t.Fatal(err)
		}
		p, err := newPlan(w, g, 1, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		got := map[kind]int{}
		seen := map[[2]int32]bool{}
		for i := 0; i < 1000; i++ {
			o := p.take()
			got[o.Kind]++
			if o.Kind == kindSolve {
				if seen[[2]int32{o.S, o.T}] {
					t.Fatalf("%s: solve pair %d-%d repeated", tc.workload, o.S, o.T)
				}
				seen[[2]int32{o.S, o.T}] = true
			}
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: kinds %v, want %v", tc.workload, got, tc.want)
		}
	}
}

func TestWriteScheduleRate(t *testing.T) {
	w, _ := workloadByName("write-mix")
	g, err := repro.LoadDataset(w.dataset, w.scale, serverSeed)
	if err != nil {
		t.Fatal(err)
	}
	start := map[[2]int32]float64{}
	for _, e := range g.Edges() {
		start[[2]int32{e.U, e.V}] = e.P
	}
	writes := writeSchedule(g, w, 3, 100*time.Second)
	if n := len(writes); n < 900 || n > 1100 {
		t.Fatalf("%d batches in 100s, want about 1000", n)
	}
	for i, o := range writes {
		if i > 0 && o.Due < writes[i-1].Due {
			t.Fatal("schedule not ordered")
		}
		if len(o.Muts) < 1 || len(o.Muts) > w.maxBatch {
			t.Fatalf("batch of %d edits", len(o.Muts))
		}
		for _, m := range o.Muts {
			if !g.HasEdge(m.U, m.V) || m.P <= 0 || m.P > 1 {
				t.Fatalf("bad edit %+v", m)
			}
			// Edits stay near the edge's starting probability, so the
			// graph does not drift over a run.
			if p0 := start[[2]int32{m.U, m.V}]; math.Abs(m.P-p0) > probJitter*p0+1e-12 {
				t.Fatalf("edit %+v moves p from %v by more than %v", m, p0, probJitter)
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	vals := []float64{15, 20, 35, 40, 50}
	for _, tc := range []struct{ p, want float64 }{
		{5, 15}, {20, 15}, {30, 20}, {40, 20}, {50, 35}, {90, 50}, {100, 50},
	} {
		if got := percentile(vals, tc.p); got != tc.want {
			t.Errorf("p%v = %v, want %v", tc.p, got, tc.want)
		}
	}
	// 100 values 1..100: the p-th percentile is exactly p.
	var hundred []float64
	for i := 100; i >= 1; i-- {
		hundred = append(hundred, float64(i))
	}
	for _, p := range []float64{1, 50, 95, 99, 100} {
		if got := percentile(hundred, p); got != p {
			t.Errorf("p%v of 1..100 = %v", p, got)
		}
	}
	if hundred[0] != 100 {
		t.Error("percentile reordered its input")
	}
	if percentile(nil, 50) != 0 {
		t.Error("empty input should give 0")
	}
}

// failingStore returns a distinct error from every method.
type failingStore struct{ errs map[string]error }

func (f failingStore) AppendBatch(store.Batch) error    { return f.errs["append"] }
func (f failingStore) Checkpoint(*store.Snapshot) error { return f.errs["checkpoint"] }
func (f failingStore) Recover() (*store.Snapshot, []store.Batch, error) {
	return nil, nil, f.errs["recover"]
}
func (f failingStore) Reset() error { return f.errs["reset"] }
func (f failingStore) Close() error { return f.errs["close"] }

func TestTimedStorePassesErrorsThrough(t *testing.T) {
	errs := map[string]error{}
	for _, name := range []string{"append", "checkpoint", "recover", "reset", "close"} {
		errs[name] = errors.New(name + " failed")
	}
	ts := &timedStore{Store: failingStore{errs}}
	if err := ts.AppendBatch(store.Batch{}); err != errs["append"] {
		t.Errorf("AppendBatch: %v", err)
	}
	if err := ts.Checkpoint(&store.Snapshot{}); err != errs["checkpoint"] {
		t.Errorf("Checkpoint: %v", err)
	}
	if _, _, err := ts.Recover(); err != errs["recover"] {
		t.Errorf("Recover: %v", err)
	}
	if err := ts.Reset(); err != errs["reset"] {
		t.Errorf("Reset: %v", err)
	}
	if err := ts.Close(); err != errs["close"] {
		t.Errorf("Close: %v", err)
	}
	if len(ts.calls) != 2 || ts.calls[0].checkpoint || !ts.calls[1].checkpoint {
		t.Errorf("recorded calls %+v, want one append then one checkpoint", ts.calls)
	}
	if err := (&timedStore{Store: store.NewMem()}).AppendBatch(store.Batch{Epoch: 1}); err != nil {
		t.Errorf("AppendBatch on a working store: %v", err)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics
// the program emits in step: same names, same units, same order.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v", names)
	}
	hr := &httpRun{}
	tr := &tracedRun{}
	e2e, _ := endToEnd(hr, []float64{1}, 1, 1)
	check := func(what string, want []struct{ Name, Unit string }, got []metric) {
		if len(want) != len(got) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, program emits %d", what, len(want), len(got))
		}
		for i := range got {
			if want[i].Name != got[i].Name || want[i].Unit != got[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", what, i, want[i].Name, want[i].Unit, got[i].Name, got[i].Unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, e2e)
	check("per_layer", spec.PerLayer, perLayer(hr, tr))
}

func TestStagesFromEvents(t *testing.T) {
	t0 := time.Unix(100, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	tro := tracedOp{op: op{Kind: kindSolve}}
	tro.status.Started, tro.status.Finished = t0, at(20)
	tro.res.Solution.ElimTime = 3 * time.Millisecond
	for _, e := range []struct {
		stage repro.ProgressStage
		ms    int
		round int
	}{
		{repro.StageEliminate, 4, 0}, {repro.StagePaths, 7, 0},
		{repro.StageSelect, 9, 1}, {repro.StageSelect, 11, 2}, {repro.StageEvaluate, 12, 0},
	} {
		tro.events = append(tro.events, stageTime{ev: repro.ProgressEvent{Stage: e.stage, Round: e.round}, at: at(e.ms)})
	}
	got := map[string]time.Duration{}
	for _, s := range stages(tro) {
		got[s.name] = s.d
	}
	want := map[string]time.Duration{
		"core.prep": 1 * time.Millisecond, "core.eliminate": 3 * time.Millisecond,
		"core.paths": 3 * time.Millisecond, "core.select": 5 * time.Millisecond,
		"core.evaluate": 8 * time.Millisecond,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("stages %v, want %v", got, want)
	}
	if _, _, rounds := counts(tro); rounds != 2 {
		t.Errorf("rounds %d, want 2", rounds)
	}
}
