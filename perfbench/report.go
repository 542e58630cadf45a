package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro"
)

// countWindow is how many ops of a kind (the first ones in sequence
// order) the core count metrics average over. A fixed prefix makes the
// counts repeat exactly for a seed on a single-epoch workload, whatever
// the run's throughput.
const countWindow = 50

// report is the full result file of one run.
type report struct {
	Header   runHeader                 `json:"header"`
	Phases   map[string]map[kind]tally `json:"phases"`
	EndToEnd []metric                  `json:"end_to_end"`
	PerKind  []metric                  `json:"per_kind"`
	PerLayer []metric                  `json:"per_layer,omitempty"`
	SetupsS  []float64                 `json:"setups_s"`
	// Timeline counts successful requests per second of the measured
	// window, by the second they were sent in.
	Timeline     []int `json:"timeline"`
	WriteBacklog int   `json:"write_backlog"`
	// Relmaxd holds relmaxd /metrics counter deltas over the measured
	// window; Engine the traced run's Engine.Stats deltas over its own.
	Relmaxd  counters  `json:"relmaxd_counters"`
	Engine   *counters `json:"engine_stats_delta,omitempty"`
	Problems []string  `json:"problems,omitempty"`
	Invalid  string    `json:"invalid,omitempty"`
}

// tally is the sent/ok/failed count of one kind in one phase.
type tally struct {
	Sent   int `json:"sent"`
	OK     int `json:"ok"`
	Failed int `json:"failed"`
}

func timeline(hr *httpRun) []int {
	n := int(hr.win.end.Sub(hr.win.measure).Seconds() + 0.5)
	out := make([]int, n)
	for _, s := range hr.samples {
		if i := int(s.start.Sub(hr.win.measure).Seconds()); s.phase == phaseMeasure && s.ok() && i >= 0 && i < n {
			out[i]++
		}
	}
	return out
}

func phaseCounts(samples []sample) map[string]map[kind]tally {
	out := map[string]map[kind]tally{}
	for _, s := range samples {
		m := out[s.phase.String()]
		if m == nil {
			m = map[kind]tally{}
			out[s.phase.String()] = m
		}
		l := m[s.op.Kind]
		l.Sent++
		if s.ok() {
			l.OK++
		} else {
			l.Failed++
		}
		m[s.op.Kind] = l
	}
	return out
}

// engineCounters picks the Engine.Stats counters the traced run records
// beside relmaxd's /metrics deltas.
func engineCounters(st repro.EngineStats) counters {
	return counters{
		CacheHits: st.CacheHits, CacheMisses: st.CacheMisses, CacheInvalidated: st.CacheInvalidated,
		AnytimeEstimates: st.AnytimeEstimates, AnytimeSamples: st.AnytimeSamplesUsed,
		DeltaCommits: st.DeltaCommits, Compactions: st.Compactions, Applies: st.Applies,
		JobsRejected: st.RejectedJobs, JobsFailed: st.FailedJobs, Checkpoints: st.Checkpoints,
	}
}

// perLayer computes the traced run's per-layer metrics. Every name is
// always present; a layer that does no work on the workload reports 0.
// Timings are nearest-rank percentiles over the measured window.
func perLayer(hr *httpRun, tr *tracedRun) []metric {
	var out []metric
	add := func(name, unit string, v float64) { out = append(out, metric{name, unit, v}) }

	// relmaxd: HTTP p50 minus the in-process p50 of the same kind. A
	// write's HTTP time here excludes its lateness, which relmaxd never sees.
	httpLat, tracedLat := map[kind][]float64{}, map[kind][]float64{}
	for _, s := range hr.samples {
		if s.phase == phaseMeasure && s.ok() {
			httpLat[s.op.Kind] = append(httpLat[s.op.Kind], ms(s.latency-s.late))
		}
	}
	measuredOK := func(ts []tracedOp) []tracedOp {
		var out []tracedOp
		for _, t := range ts {
			if t.phase == phaseMeasure && t.err == nil {
				out = append(out, t)
			}
		}
		return out
	}
	reads, writes := measuredOK(tr.reads), measuredOK(tr.writes)
	for _, t := range append(append([]tracedOp(nil), reads...), writes...) {
		tracedLat[t.op.Kind] = append(tracedLat[t.op.Kind], ms(t.total))
	}
	for _, k := range allKinds {
		v := 0.0
		if len(httpLat[k]) > 0 && len(tracedLat[k]) > 0 {
			v = median(httpLat[k]) - median(tracedLat[k])
		}
		add("relmaxd.overhead_ms."+string(k), "ms", v)
	}

	var queue, runT, canon, hitUs, missMs []float64
	stageMs := map[string][]float64{}
	for _, t := range reads {
		canon = append(canon, us(t.canon))
		if t.status.CacheHit {
			hitUs = append(hitUs, us(t.total))
			continue
		}
		if t.op.Kind == kindEstimate {
			missMs = append(missMs, ms(t.total))
		}
		st := t.status
		if st.Started.IsZero() {
			continue
		}
		queue = append(queue, ms(st.Started.Sub(st.Enqueued)))
		runT = append(runT, ms(st.Finished.Sub(st.Started)))
		for _, sg := range stages(t) {
			key := string(t.op.Kind) + "." + strings.TrimPrefix(sg.name, "core.")
			stageMs[key] = append(stageMs[key], ms(sg.d))
		}
	}
	d := engineCounters(tr.after).sub(engineCounters(tr.before))
	add("repro.job.queue_wait_ms.p50", "ms", percentile(queue, 50))
	add("repro.job.queue_wait_ms.p99", "ms", percentile(queue, 99))
	add("repro.job.run_ms.p50", "ms", percentile(runT, 50))
	add("repro.job.rejected", "count", float64(d.JobsRejected))
	add("repro.query.canon_us.p50", "us", percentile(canon, 50))
	add("repro.cache.hit_ratio", "ratio", ratio(float64(d.CacheHits), float64(d.CacheHits+d.CacheMisses)))
	add("repro.cache.hit_us.p50", "us", percentile(hitUs, 50))
	add("repro.cache.invalidated", "count", float64(d.CacheInvalidated))

	add("core.solve.prep_ms", "ms", median(stageMs["solve.prep"]))
	for _, k := range []kind{kindSolve, kindMulti} {
		for _, st := range []string{"eliminate", "paths", "select", "evaluate"} {
			add(fmt.Sprintf("core.%s.%s_ms", k, st), "ms", median(stageMs[string(k)+"."+st]))
		}
	}
	for _, k := range []kind{kindSolve, kindMulti} {
		var c, p, r []float64
		for _, t := range tr.reads {
			if t.op.Kind != k || t.err != nil || t.status.CacheHit || len(c) == countWindow {
				continue
			}
			cands, paths, rounds := counts(t)
			c, p, r = append(c, float64(cands)), append(p, float64(paths)), append(r, float64(rounds))
		}
		add(fmt.Sprintf("core.%s.candidates", k), "count", mean(c))
		add(fmt.Sprintf("core.%s.paths", k), "count", mean(p))
		add(fmt.Sprintf("core.%s.rounds", k), "count", mean(r))
	}

	add("anytime.samples_per_est", "count", ratio(float64(d.AnytimeSamples), float64(d.AnytimeEstimates)))
	add("anytime.miss_ms.p50", "ms", percentile(missMs, 50))

	var commit, depth, appends, ckpts []float64
	for _, t := range writes {
		commit = append(commit, ms(t.total-t.storeTime))
		depth = append(depth, float64(t.chainDepth))
		for _, c := range t.calls {
			if c.checkpoint {
				ckpts = append(ckpts, ms(c.end.Sub(c.start)))
			} else {
				appends = append(appends, ms(c.end.Sub(c.start)))
			}
		}
	}
	add("repro.apply.commit_ms.p50", "ms", percentile(commit, 50))
	add("repro.apply.commit_ms.p99", "ms", percentile(commit, 99))
	add("repro.apply.chain_depth.mean", "count", mean(depth))
	add("repro.apply.compactions", "count", float64(d.Compactions))
	add("repro.apply.delta_commits", "count", float64(d.DeltaCommits))
	add("store.append_ms.p50", "ms", percentile(appends, 50))
	add("store.append_ms.p99", "ms", percentile(appends, 99))
	add("store.checkpoint_ms.p50", "ms", percentile(ckpts, 50))
	add("store.checkpoints", "count", float64(len(ckpts)))

	var late []float64
	for _, s := range hr.samples {
		if s.op.Kind == kindMutate && s.phase == phaseMeasure {
			late = append(late, ms(s.late))
		}
	}
	add("loadgen.late_p99_ms", "ms", percentile(late, 99))
	counts := phaseCounts(hr.samples)[phaseMeasure.String()]
	for _, k := range allKinds {
		l := counts[k]
		add(fmt.Sprintf("loadgen.%s.sent", k), "count", float64(l.Sent))
		add(fmt.Sprintf("loadgen.%s.ok", k), "count", float64(l.OK))
		add(fmt.Sprintf("loadgen.%s.failed", k), "count", float64(l.Failed))
	}
	return out
}

func (r *report) write(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// print writes the human-readable report: the header, every metric by
// name with its unit, and the phase counts.
func (r *report) print(w io.Writer) {
	h, _ := json.Marshal(r.Header)
	fmt.Fprintf(w, "header %s\n", h)
	section := func(title string, ms []metric) {
		if len(ms) == 0 {
			return
		}
		fmt.Fprintf(w, "%s:\n", title)
		for _, m := range ms {
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", m.Name, m.Value, m.Unit)
		}
	}
	section("end-to-end (HTTP, tracing off)", r.EndToEnd)
	section("per kind (HTTP)", r.PerKind)
	section("per layer (traced in-process replay)", r.PerLayer)
	for _, ph := range []string{"warmup", "measure"} {
		var parts []string
		for _, k := range allKinds {
			if l, ok := r.Phases[ph][k]; ok {
				parts = append(parts, fmt.Sprintf("%s sent=%d ok=%d failed=%d", k, l.Sent, l.OK, l.Failed))
			}
		}
		fmt.Fprintf(w, "phase %s: %s\n", ph, strings.Join(parts, "; "))
	}
	c, _ := json.Marshal(r.Relmaxd)
	fmt.Fprintf(w, "relmaxd /metrics deltas: %s\n", c)
	if r.Engine != nil {
		e, _ := json.Marshal(r.Engine)
		fmt.Fprintf(w, "traced Engine.Stats deltas: %s\n", e)
	}
}

// gitCommit reads the checked-out commit from root/.git without running
// git, or reports "unavailable" when root is not a git work tree.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unavailable"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unavailable"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unavailable"
}
