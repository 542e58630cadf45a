// Command perfbench is the repository's serving benchmark. It starts a
// real relmaxd, drives one traffic mix (a workload) over loopback HTTP,
// checks every answer, and prints the end-to-end metrics. With -trace 1
// it also replays the same operations in-process against a repro.Catalog
// configured like relmaxd, timing each layer from spans around public
// calls, and prints the per-layer metrics instead.
//
// Run it from the repository root through run.sh, which builds relmaxd
// and this program first:
//
//	bash perfbench/run.sh --workload solve --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A run whose answers fail a check
// prints correct=false without metrics and exits 1; a run whose write tally
// fell behind its schedule is invalid and exits 3. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro"
)

// Validity bounds of the open-loop write lane: a run that sends writes
// later than this, or leaves this many due writes unsent, measured a
// saturated generator rather than the server.
const (
	maxLateP99 = 500 * time.Millisecond
	maxBacklog = 2
)

// warmup runs before every measured window, so the cache and the
// server's lazy set-up are warm. setupsEach is how many fresh server
// start-ups each run times for setup_s before the measured window (the
// last one serves the run) and again after it. A busy moment of a shared
// machine slows every start-up within a few hundred milliseconds; timing
// two blocks half a run apart keeps one such moment from setting the
// median.
const (
	warmup     = 3 * time.Second
	setupsEach = 20
)

// referenceChecks is how many reads a -trace 0 run recomputes in-process
// (spread evenly over the run) to compare with the HTTP payloads. A
// -trace 1 run compares every read.
const referenceChecks = 32

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	relmaxd  string
	out      string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: solve, estimate-hot or write-mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: fixes every generated request")
	flag.IntVar(&cfg.seconds, "seconds", 20, "length of the measured window in seconds")
	flag.IntVar(&cfg.trace, "trace", 0, "1 = also replay in-process with spans and report per-layer metrics")
	flag.StringVar(&cfg.relmaxd, "relmaxd", "", "path of the relmaxd binary to benchmark")
	flag.StringVar(&cfg.out, "out", ".bench_build/perfbench", "directory for result files, spans and scratch data")
	flag.Parse()
	code, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// metric is one named measurement with its unit.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]resultItem `json:"metrics"`
}

type resultItem struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(cfg config) (int, error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return 2, err
	}
	if cfg.relmaxd == "" || cfg.seconds < 1 || (cfg.trace != 0 && cfg.trace != 1) {
		return 2, fmt.Errorf("need -relmaxd, -seconds >= 1 and -trace 0 or 1")
	}
	g, err := repro.LoadDataset(w.dataset, w.scale, serverSeed)
	if err != nil {
		return 1, err
	}
	tag := fmt.Sprintf("%s-seed%d-trace%d", w.name, cfg.seed, cfg.trace)
	scratch := filepath.Join(cfg.out, fmt.Sprintf("tmp-%s-%d", tag, os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return 1, err
	}
	defer os.RemoveAll(scratch)

	p, err := newPlan(w, g, cfg.seed, warmup+time.Duration(cfg.seconds)*time.Second)
	if err != nil {
		return 1, err
	}

	// Set-up: time fresh start-ups, each with its own data directory.
	var setupS []float64
	start := func() (*server, error) {
		args := serverArgs(w, filepath.Join(scratch, fmt.Sprintf("data-%d", len(setupS))))
		s, d, err := startServer(cfg.relmaxd, args, filepath.Join(cfg.out, tag+".relmaxd.log"))
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, d.Seconds())
		return s, nil
	}
	startStop := func(n int) error {
		for i := 0; i < n; i++ {
			s, err := start()
			if err != nil {
				return err
			}
			s.stop()
		}
		return nil
	}
	if err := startStop(setupsEach - 1); err != nil {
		return 1, err
	}
	srv, err := start()
	if err != nil {
		return 1, err
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.stop()
		}
	}()

	ctx := context.Background()
	client := newClient(2)
	epoch0, err := healthEpoch(ctx, client, srv.base, w.dataset)
	if err != nil {
		return 1, err
	}
	win := newWindow(warmup, time.Duration(cfg.seconds)*time.Second)
	hr, err := driveHTTP(client, srv.base, w, p, win)
	if err != nil {
		return 1, err
	}
	// One fixed estimate after the run, compared with an engine fed the
	// same ordered batches.
	fixed := op{Index: -1, Kind: kindEstimate}
	var finalEst sample
	var finalEpoch uint64
	if len(p.writes) > 0 {
		fixed.S, fixed.T = p.estimate[0].S, p.estimate[0].T
		finalEst = send(client, srv.base, w.dataset, fixed)
		if finalEpoch, err = healthEpoch(ctx, client, srv.base, w.dataset); err != nil {
			return 1, err
		}
	}
	srv.stop()
	stopped = true
	rss, err := srv.peakRSSMB()
	if err != nil {
		return 1, err
	}
	if err := startStop(setupsEach); err != nil {
		return 1, err
	}

	var reads, writes []sample
	for _, s := range hr.samples {
		if s.op.Kind == kindMutate {
			writes = append(writes, s)
		} else {
			reads = append(reads, s)
		}
	}
	byIndex := func(ss []sample) {
		sort.Slice(ss, func(i, j int) bool { return ss[i].op.Index < ss[j].op.Index })
	}
	byIndex(reads)
	byIndex(writes)

	// Output checks.
	var problems []string
	fail := func(format string, args ...any) {
		if len(problems) < 20 {
			problems = append(problems, fmt.Sprintf(format, args...))
		}
	}
	singleEpoch := len(p.writes) == 0
	for _, s := range reads {
		if !s.ok() {
			continue
		}
		var want *uint64
		if singleEpoch {
			want = &epoch0
		}
		if err := checkSchema(g, s, want); err != nil {
			fail("read %d (%s): %v", s.op.Index, s.op.Kind, err)
		}
	}
	if !singleEpoch {
		last, err := checkWrites(writes, epoch0)
		if err != nil {
			fail("write lane: %v", err)
		} else if last != finalEpoch {
			fail("write lane ends at epoch %d but /healthz reports %d", last, finalEpoch)
		}
		if !finalEst.ok() {
			fail("final estimate: status %d, %v", finalEst.status, finalEst.err)
		} else if err := checkSchema(g, finalEst, &finalEpoch); err != nil {
			fail("final estimate: %v", err)
		}
	}

	var tr *tracedRun
	if cfg.trace == 1 {
		tr, err = replay(w, g, reads, writes, filepath.Join(scratch, "replay-data"))
		if err != nil {
			return 1, err
		}
		if err := tr.tr.write(filepath.Join(cfg.out, tag+".spans.jsonl")); err != nil {
			return 1, err
		}
	}
	if len(problems) == 0 {
		problems = append(problems, reference(w, g, reads, writes, tr, finalEst, finalEpoch)...)
	}

	measured := 0
	failed := 0
	for _, s := range hr.samples {
		if s.phase == phaseMeasure {
			measured++
			if !s.ok() {
				failed++
			}
		}
	}
	if measured == 0 {
		return 1, fmt.Errorf("no request completed in the measured window")
	}
	e2e, perKind := endToEnd(hr, setupS, rss, float64(cfg.seconds))
	var layers []metric
	if tr != nil {
		layers = perLayer(hr, tr)
	}
	invalid := validity(hr, p)
	if len(problems) > 0 || invalid != "" {
		// A wrong or invalid run reports no numbers.
		e2e, perKind, layers = nil, nil, nil
	}

	rep := report{
		Header:       header(cfg, w, g, srv.args),
		Phases:       phaseCounts(hr.samples),
		EndToEnd:     e2e,
		PerKind:      perKind,
		PerLayer:     layers,
		Relmaxd:      hr.counters,
		Problems:     problems,
		Invalid:      invalid,
		SetupsS:      setupS,
		Timeline:     timeline(hr),
		WriteBacklog: hr.backlog,
	}
	if tr != nil {
		d := engineCounters(tr.after).sub(engineCounters(tr.before))
		rep.Engine = &d
	}
	if err := rep.write(filepath.Join(cfg.out, tag+".json")); err != nil {
		return 1, err
	}
	rep.print(os.Stdout)

	res := result{Correct: len(problems) == 0 && invalid == "", Attempted: measured, Failed: failed,
		Metrics: map[string]resultItem{}}
	shown := e2e
	if tr != nil {
		shown = layers
	}
	for _, m := range shown {
		res.Metrics[m.Name] = resultItem{m.Value, m.Unit}
	}
	code := 0
	for _, pr := range problems {
		code = 1
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", pr)
	}
	if code == 0 && invalid != "" {
		code = 3
		fmt.Fprintln(os.Stderr, "perfbench: invalid run:", invalid)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(line))
	return code, nil
}

// reference compares HTTP answers with in-process ones. On a single-epoch
// workload every read (with -trace 1) or an even spread of reads must
// carry the in-process Result's values exactly. On a workload with writes
// the final epoch and one fixed estimate must equal an engine fed the
// same ordered batches.
func reference(w workload, g *repro.Graph, reads, writes []sample, tr *tracedRun, finalEst sample, finalEpoch uint64) []string {
	var problems []string
	add := func(format string, args ...any) {
		if len(problems) < 20 {
			problems = append(problems, fmt.Sprintf(format, args...))
		}
	}
	ctx := context.Background()
	eng := (*repro.Engine)(nil)
	if tr != nil {
		eng = tr.eng
	} else {
		e, err := newCatalog().Create(w.dataset, g.Clone())
		if err != nil {
			return []string{err.Error()}
		}
		eng = e
	}
	defer eng.Close()
	runOne := func(o op) (repro.Result, uint64, error) {
		job, err := eng.Submit(ctx, o.query())
		if err != nil {
			return repro.Result{}, 0, err
		}
		res, err := job.Wait(ctx)
		return res, job.Epoch(), err
	}

	if len(writes) > 0 {
		if tr == nil {
			for _, s := range writes {
				if _, err := eng.Apply(ctx, s.op.mutations()...); err != nil {
					add("in-process apply of write %d: %v", s.op.Index, err)
					return problems
				}
			}
		}
		if e := eng.Epoch(); e != finalEpoch {
			add("final epoch: relmaxd %d, in-process %d", finalEpoch, e)
		}
		res, epoch, err := runOne(finalEst.op)
		if err != nil {
			add("in-process final estimate: %v", err)
		} else if err := checkSame(finalEst, res, epoch); err != nil {
			add("final estimate: %v", err)
		}
		return problems
	}

	if tr != nil {
		traced := make(map[int]tracedOp, len(tr.reads))
		for _, t := range tr.reads {
			traced[t.op.Index] = t
		}
		for _, s := range reads {
			t, ok := traced[s.op.Index]
			switch {
			case !s.ok():
			case !ok:
				add("read %d was not replayed", s.op.Index)
			case t.err != nil:
				add("read %d failed in-process: %v", s.op.Index, t.err)
			default:
				if err := checkSame(s, t.res, t.epoch); err != nil {
					add("read %d: %v", s.op.Index, err)
				}
			}
		}
		return problems
	}
	var ok []sample
	for _, s := range reads {
		if s.ok() {
			ok = append(ok, s)
		}
	}
	n := min(referenceChecks, len(ok))
	for i := 0; i < n; i++ {
		s := ok[i*len(ok)/n]
		res, epoch, err := runOne(s.op)
		if err != nil {
			add("read %d failed in-process: %v", s.op.Index, err)
			continue
		}
		if err := checkSame(s, res, epoch); err != nil {
			add("read %d: %v", s.op.Index, err)
		}
	}
	return problems
}

// validity returns why a run with an open-loop write lane measured the
// generator rather than the server, or "" when it is valid.
func validity(hr *httpRun, p *plan) string {
	if p.exhausted() {
		return "the run drew more distinct solve or multi queries than the plan holds"
	}
	var late []float64
	for _, s := range hr.samples {
		if s.op.Kind == kindMutate && s.phase == phaseMeasure {
			late = append(late, ms(s.late))
		}
	}
	if p99 := percentile(late, 99); p99 > ms(maxLateP99) {
		return fmt.Sprintf("write lane p99 lateness %.1f ms exceeds %v", p99, maxLateP99)
	}
	if hr.backlog > maxBacklog {
		return fmt.Sprintf("%d due writes left unsent (bound %d)", hr.backlog, maxBacklog)
	}
	return ""
}

// endToEnd computes the gated metrics (identical names on every
// workload) and the per-kind latency breakdown that is printed beside
// them. Latencies are nearest-rank percentiles of successful requests in
// the measured window; write latency runs from the scheduled due time.
func endToEnd(hr *httpRun, setups []float64, rssMB, seconds float64) (e2e, perKind []metric) {
	var all []float64
	byKind := map[kind][]float64{}
	attempted, failedByKind := map[kind]int{}, map[kind]int{}
	for _, s := range hr.samples {
		if s.phase != phaseMeasure {
			continue
		}
		attempted[s.op.Kind]++
		if !s.ok() {
			failedByKind[s.op.Kind]++
			continue
		}
		all = append(all, ms(s.latency))
		byKind[s.op.Kind] = append(byKind[s.op.Kind], ms(s.latency))
	}
	e2e = []metric{
		{"setup_s", "s", median(setups)},
		{"throughput_rps", "1/s", float64(len(all)) / seconds},
		{"latency_p50_ms", "ms", percentile(all, 50)},
		{"latency_p95_ms", "ms", percentile(all, 95)},
		{"server_rss_mb", "MiB", rssMB},
	}
	tail := map[kind]float64{kindSolve: 99, kindMulti: 90, kindEstimate: 99, kindMutate: 90}
	total, failed := 0, 0
	for _, k := range allKinds {
		if attempted[k] == 0 {
			continue
		}
		total += attempted[k]
		failed += failedByKind[k]
		perKind = append(perKind,
			metric{fmt.Sprintf("%s_p50_ms", k), "ms", percentile(byKind[k], 50)},
			metric{fmt.Sprintf("%s_p%g_ms", k, tail[k]), "ms", percentile(byKind[k], tail[k])},
			metric{fmt.Sprintf("%s_count", k), "count", float64(len(byKind[k]))})
	}
	perKind = append(perKind, metric{"fail_ratio", "ratio", ratio(float64(failed), float64(total))})
	return e2e, perKind
}

// header is the reproducibility block of every result.
type runHeader struct {
	Workload    string   `json:"workload"`
	Seed        int64    `json:"seed"`
	Seconds     int      `json:"seconds"`
	WarmupS     float64  `json:"warmup_s"`
	Trace       int      `json:"trace"`
	NProc       int      `json:"nproc"`
	GoVersion   string   `json:"go_version"`
	GitCommit   string   `json:"git_commit"`
	ServerFlags []string `json:"server_flags"`
	Dataset     string   `json:"dataset"`
	Scale       float64  `json:"scale"`
	N           int      `json:"n"`
	M           int      `json:"m"`
	Directed    bool     `json:"directed"`
}

func header(cfg config, w workload, g *repro.Graph, args []string) runHeader {
	// The data directory is scratch; keep only the flag names stable.
	flags := append([]string(nil), args...)
	for i := range flags {
		if i > 0 && (flags[i-1] == "-data-dir" || flags[i-1] == "-addr") {
			flags[i] = "<" + strings.TrimPrefix(flags[i-1], "-") + ">"
		}
	}
	return runHeader{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, WarmupS: warmup.Seconds(), Trace: cfg.trace,
		NProc: runtime.NumCPU(), GoVersion: runtime.Version(), GitCommit: gitCommit("."),
		ServerFlags: flags,
		Dataset:     w.dataset, Scale: w.scale, N: g.N(), M: g.M(), Directed: g.Directed(),
	}
}
