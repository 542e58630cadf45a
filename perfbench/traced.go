package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/store"
)

// newCatalog builds the catalog relmaxd builds at its default flags
// (cmd/relmaxd newCatalogWithDefaults): rss sampler, z=500, seed 1, all
// CPUs, a 256-entry cache, no warming, default queue bounds and
// checkpoint policy.
func newCatalog() *repro.Catalog {
	return repro.NewCatalog(
		repro.WithSamplerKind("rss"),
		repro.WithSampleSize(500),
		repro.WithSeed(serverSeed),
		repro.WithWorkers(-1),
		repro.WithResultCache(256),
		repro.WithCacheWarming(0),
		repro.WithMaxConcurrent(0),
		repro.WithQueueDepth(64),
		repro.WithCheckpointEvery(0, 0),
	)
}

// span is one timed interval of the traced run. Spans of one request
// share Req; Parent is the causing span's ID (0 for a request's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    string `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func (t *tracer) add(name, req string, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds()})
	return id
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// storeCall is one timed call into the durable store.
type storeCall struct {
	checkpoint bool
	start, end time.Time
}

// timedStore wraps a dataset's store.Store and records how long every
// AppendBatch and Checkpoint takes. Results and errors pass through
// unchanged; the other methods are the wrapped store's own.
type timedStore struct {
	store.Store
	mu    sync.Mutex
	calls []storeCall
}

func (t *timedStore) AppendBatch(b store.Batch) error {
	start := time.Now()
	err := t.Store.AppendBatch(b)
	t.record(false, start)
	return err
}

func (t *timedStore) Checkpoint(s *store.Snapshot) error {
	start := time.Now()
	err := t.Store.Checkpoint(s)
	t.record(true, start)
	return err
}

func (t *timedStore) record(checkpoint bool, start time.Time) {
	end := time.Now()
	t.mu.Lock()
	t.calls = append(t.calls, storeCall{checkpoint: checkpoint, start: start, end: end})
	t.mu.Unlock()
}

// within returns the calls that started in [from, to).
func (t *timedStore) within(from, to time.Time) []storeCall {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []storeCall
	for _, c := range t.calls {
		if !c.start.Before(from) && c.start.Before(to) {
			out = append(out, c)
		}
	}
	return out
}

// stageTime is one solver progress event and when it arrived.
type stageTime struct {
	ev repro.ProgressEvent
	at time.Time
}

// tracedOp is one op as the in-process replay served it.
type tracedOp struct {
	op    op
	phase phase
	start time.Time
	total time.Duration // the request span
	canon time.Duration
	err   error
	// reads
	res    repro.Result
	epoch  uint64
	status repro.JobStatus
	events []stageTime
	// writes
	storeTime  time.Duration
	calls      []storeCall
	chainDepth int
}

// tracedRun is the outcome of the in-process replay.
type tracedRun struct {
	reads, writes []tracedOp
	// before and after bracket the measured window.
	before, after repro.EngineStats
	store         *timedStore
	eng           *repro.Engine
	tr            *tracer
}

// replay serves the HTTP run's ops in-process against a catalog built
// like relmaxd's: the same reads in the same order on as many lanes, and
// the same writes on the same schedule. Each op keeps the phase it had in
// the HTTP run. dataDir is used only by durable workloads.
func replay(w workload, g *repro.Graph, reads, writes []sample, dataDir string) (*tracedRun, error) {
	cat := newCatalog()
	run := &tracedRun{tr: &tracer{origin: time.Now()}}
	if w.durable {
		if err := cat.SetStorage(dataDir); err != nil {
			return nil, err
		}
		cat.SetStoreWrapper(func(_ string, s store.Store) store.Store {
			run.store = &timedStore{Store: s}
			return run.store
		})
	}
	eng, err := cat.Create(w.dataset, g.Clone())
	if err != nil {
		return nil, err
	}
	run.eng = eng
	ctx := context.Background()

	stream := &readStream{}
	phaseOf := make(map[int]phase, len(reads))
	for _, s := range reads {
		stream.ops = append(stream.ops, s.op)
		phaseOf[s.op.Index] = s.phase
	}
	var (
		mu      sync.Mutex
		crossed atomic.Bool
	)
	boundary := func(p phase) {
		if p == phaseMeasure && crossed.CompareAndSwap(false, true) {
			run.before = eng.Stats() // one writer; wg.Wait orders the read
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < w.readLanes; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out []tracedOp
			for {
				o, ok := stream.take()
				if !ok {
					break
				}
				boundary(phaseOf[o.Index])
				t := run.serveRead(ctx, eng, o)
				t.phase = phaseOf[o.Index]
				out = append(out, t)
			}
			mu.Lock()
			run.reads = append(run.reads, out...)
			mu.Unlock()
		}()
	}
	if len(writes) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			var out []tracedOp
			for _, s := range writes {
				if d := time.Until(start.Add(s.op.Due)); d > 0 {
					time.Sleep(d)
				}
				boundary(s.phase)
				t := run.serveWrite(ctx, eng, s.op)
				t.phase = s.phase
				out = append(out, t)
			}
			mu.Lock()
			run.writes = out
			mu.Unlock()
		}()
	}
	wg.Wait()
	run.after = eng.Stats()
	if !crossed.Load() {
		run.before = run.after
	}
	sort.Slice(run.reads, func(i, j int) bool { return run.reads[i].op.Index < run.reads[j].op.Index })
	return run, nil
}

func reqID(o op) string {
	if o.Kind == kindMutate {
		return fmt.Sprintf("w%d", o.Index)
	}
	return fmt.Sprintf("r%d", o.Index)
}

// serveRead runs one read op as relmaxd does (Submit, then Wait). Canonicalize
// and Key are timed beside it, just before the request span starts, since
// Submit canonicalizes again inside.
func (run *tracedRun) serveRead(ctx context.Context, eng *repro.Engine, o op) tracedOp {
	req := reqID(o)
	q := o.query()
	var events []stageTime
	q.Progress = func(ev repro.ProgressEvent) {
		events = append(events, stageTime{ev: ev, at: time.Now()})
	}

	c0 := time.Now()
	if cq, err := eng.Canonicalize(q); err == nil {
		_ = cq.Key()
	}
	c1 := time.Now()
	run.tr.add("repro.query.canon", req, 0, c0, c1)
	t := tracedOp{op: o, start: c1, canon: c1.Sub(c0)}

	job, err := eng.Submit(ctx, q)
	s1 := time.Now()
	if err != nil {
		t.err = err
		t.total = s1.Sub(t.start)
		run.tr.add("request."+string(o.Kind), req, 0, t.start, s1)
		return t
	}
	t.res, t.err = job.Wait(ctx)
	end := time.Now()
	t.total = end.Sub(t.start)
	t.epoch = job.Epoch()
	t.status = job.Status()
	t.events = events // ordered after the solve by Wait

	root := run.tr.add("request."+string(o.Kind), req, 0, t.start, end)
	run.tr.add("repro.job.submit", req, root, t.start, s1)
	if t.status.CacheHit {
		run.tr.add("repro.cache.hit", req, root, t.start, s1)
		return t
	}
	st := t.status
	if !st.Started.IsZero() {
		run.tr.add("repro.job.queue", req, root, st.Enqueued, st.Started)
		runSpan := run.tr.add("repro.job.run", req, root, st.Started, st.Finished)
		prev := st.Started
		for _, sg := range stages(t) {
			run.tr.add(sg.name, req, runSpan, prev, prev.Add(sg.d))
			prev = prev.Add(sg.d)
		}
	}
	return t
}

// stage is one derived solver phase of a traced read.
type stage struct {
	name string
	d    time.Duration
}

// stages splits a solve or multi job's run into core phases from the
// times its progress events arrived: prep (solve only: time to the
// eliminate event minus Solution.ElimTime), eliminate, paths (to the
// paths event), select (to the evaluate event) and evaluate (to the job's
// end). It returns nil for estimates and incomplete event sequences.
func stages(t tracedOp) []stage {
	if t.op.Kind != kindSolve && t.op.Kind != kindMulti {
		return nil
	}
	at := map[repro.ProgressStage]time.Time{}
	for _, e := range t.events {
		if _, seen := at[e.ev.Stage]; !seen || e.ev.Stage == repro.StageSelect {
			at[e.ev.Stage] = e.at
		}
	}
	elim, ok1 := at[repro.StageEliminate]
	paths, ok2 := at[repro.StagePaths]
	eval, ok3 := at[repro.StageEvaluate]
	if !ok1 || !ok2 || !ok3 || t.status.Started.IsZero() {
		return nil
	}
	var prep time.Duration
	if t.op.Kind == kindSolve {
		prep = elim.Sub(t.status.Started) - t.res.Solution.ElimTime
		if prep < 0 {
			prep = 0
		}
	}
	return []stage{
		{"core.prep", prep},
		{"core.eliminate", elim.Sub(t.status.Started) - prep},
		{"core.paths", paths.Sub(elim)},
		{"core.select", eval.Sub(paths)},
		{"core.evaluate", t.status.Finished.Sub(eval)},
	}
}

// counts returns the candidate, path and round counts of a solve or multi
// read from its progress events.
func counts(t tracedOp) (cands, paths, rounds int) {
	for _, e := range t.events {
		switch e.ev.Stage {
		case repro.StageEliminate:
			cands = e.ev.Candidates
		case repro.StagePaths:
			paths = e.ev.Paths
		case repro.StageSelect:
			if e.ev.Round > rounds {
				rounds = e.ev.Round
			}
		}
	}
	return cands, paths, rounds
}

// serveWrite applies one batch as relmaxd does and splits the Apply time
// into store calls and the rest.
func (run *tracedRun) serveWrite(ctx context.Context, eng *repro.Engine, o op) tracedOp {
	t := tracedOp{op: o, start: time.Now()}
	req := reqID(o)
	t.epoch, t.err = eng.Apply(ctx, o.mutations()...)
	end := time.Now()
	t.total = end.Sub(t.start)
	t.chainDepth = eng.Stats().ChainDepth
	root := run.tr.add("request.mutate", req, 0, t.start, end)
	applySpan := run.tr.add("repro.apply", req, root, t.start, end)
	if run.store != nil {
		t.calls = run.store.within(t.start, end)
		for _, c := range t.calls {
			name := "store.append"
			if c.checkpoint {
				name = "store.checkpoint"
			}
			run.tr.add(name, req, applySpan, c.start, c.end)
			t.storeTime += c.end.Sub(c.start)
		}
	}
	return t
}
