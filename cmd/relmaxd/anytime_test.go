package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro"
)

// TestEstimatePrecisionWire: precision-mode estimates surface the anytime
// block end to end — per-pair intervals on /v1/estimate, interval-carrying
// result/progress/events on the /v2 job family.
func TestEstimatePrecisionWire(t *testing.T) {
	ts := testServer(t)

	// /v1: per-pair intervals parallel to the reliabilities.
	const body = `{"pairs":[[0,9],[1,22]],"precision":0.05,"sampler":"mcvec","seed":7}`
	status, raw := post(t, ts.URL+"/v1/estimate", body)
	if status != http.StatusOK {
		t.Fatalf("estimate status %d: %s", status, raw)
	}
	var resp estimateResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Reliabilities) != 2 || len(resp.Lo) != 2 || len(resp.Hi) != 2 ||
		len(resp.SamplesUsed) != 2 || len(resp.StopReasons) != 2 {
		t.Fatalf("anytime arrays missing or ragged: %s", raw)
	}
	if resp.Precision != 0.05 || resp.ShedPrecision != 0 {
		t.Fatalf("precision echo wrong: %s", raw)
	}
	for i := range resp.Reliabilities {
		if !(resp.Lo[i] <= resp.Reliabilities[i] && resp.Reliabilities[i] <= resp.Hi[i]) {
			t.Fatalf("pair %d: point outside interval: %s", i, raw)
		}
		if resp.StopReasons[i] != repro.StopPrecision || resp.SamplesUsed[i] <= 0 {
			t.Fatalf("pair %d: stop=%q samples=%d", i, resp.StopReasons[i], resp.SamplesUsed[i])
		}
	}
	// Identical request again: the precision-keyed cache serves the same
	// payload bit for bit.
	if _, raw2 := post(t, ts.URL+"/v1/estimate", body); string(raw2) != string(raw) {
		t.Fatalf("repeat precision estimate diverged:\n%s\n%s", raw, raw2)
	}

	// Fixed-budget requests keep the legacy shape: no anytime arrays.
	status, raw = post(t, ts.URL+"/v1/estimate", `{"pairs":[[0,9]]}`)
	if status != http.StatusOK {
		t.Fatalf("fixed estimate status %d: %s", status, raw)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if _, ok := m["lo"]; ok {
		t.Fatalf("fixed-budget estimate grew anytime fields: %s", raw)
	}

	// /v2: single-estimate job carries interval in result, progress and the
	// events stream.
	status, raw = post(t, ts.URL+"/v2/jobs",
		`{"kind":"estimate","s":0,"t":17,"precision":0.02,"sampler":"mcvec","seed":7}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", status, raw)
	}
	var jj struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &jj); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	var job struct {
		Status   string `json:"status"`
		Progress *struct {
			Stage   string  `json:"stage"`
			Lo      float64 `json:"lo"`
			Hi      float64 `json:"hi"`
			Samples int     `json:"samples"`
		} `json:"progress"`
		Result *struct {
			Reliability float64 `json:"reliability"`
			Lo          float64 `json:"lo"`
			Hi          float64 `json:"hi"`
			SamplesUsed int     `json:"samples_used"`
			StopReason  string  `json:"stop_reason"`
			Precision   float64 `json:"precision"`
		} `json:"result"`
	}
	for {
		res, err := http.Get(ts.URL + "/v2/jobs/" + jj.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(res.Body).Decode(&job)
		res.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if job.Status == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", job.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	r := job.Result
	if r == nil || r.StopReason != repro.StopPrecision || r.Precision != 0.02 ||
		r.SamplesUsed <= 0 || !(r.Lo <= r.Reliability && r.Reliability <= r.Hi) {
		t.Fatalf("job result missing anytime fields: %+v", job)
	}
	p := job.Progress
	if p == nil || p.Stage != "estimate" || p.Samples != r.SamplesUsed || p.Hi < p.Lo {
		t.Fatalf("job progress missing interval: %+v", job)
	}

	// The NDJSON event replay carries the narrowing interval per line.
	res, err := http.Get(ts.URL + "/v2/jobs/" + jj.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	sc := bufio.NewScanner(res.Body)
	events, lastSamples := 0, 0
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if line["done"] == true {
			break
		}
		if line["stage"] != "estimate" {
			t.Fatalf("unexpected stage in %q", sc.Text())
		}
		samples := int(line["samples"].(float64))
		if _, ok := line["lo"]; !ok || samples <= lastSamples {
			t.Fatalf("event line lacks interval or samples did not grow: %q", sc.Text())
		}
		lastSamples = samples
		events++
	}
	if events == 0 || lastSamples != r.SamplesUsed {
		t.Fatalf("event stream: %d events, last at %d samples (result used %d)",
			events, lastSamples, r.SamplesUsed)
	}
}

// TestPrecisionLimits: precision outside [0,1] and max_z beyond the serving
// ceiling are rejected with 400 before any work runs.
func TestPrecisionLimits(t *testing.T) {
	ts := testServer(t)
	for _, body := range []string{
		`{"pairs":[[0,9]],"precision":1.5}`,
		`{"pairs":[[0,9]],"precision":-0.1}`,
		`{"pairs":[[0,9]],"precision":0.05,"max_z":2000000}`,
	} {
		if status, raw := post(t, ts.URL+"/v1/estimate", body); status != http.StatusBadRequest {
			t.Fatalf("%s: status %d (%s), want 400", body, status, raw)
		}
	}
}

// TestShedPrecisionUnderLoad: with -shed-precision armed, a busy engine
// coarsens precision-mode estimates to the shed floor — labelled in the
// result — instead of queueing them at full cost, and the shed is counted.
func TestShedPrecisionUnderLoad(t *testing.T) {
	catalog := testCatalog(t,
		repro.WithSampleSize(200), repro.WithSeed(7), repro.WithSamplerKind("mcvec"),
		repro.WithMaxConcurrent(1), repro.WithQueueDepth(1))
	srv := newServer(catalog, 30*time.Second)
	srv.logf = t.Logf
	srv.shedPrec = 0.05
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	eng, err := catalog.Open("lastfm")
	if err != nil {
		t.Fatal(err)
	}

	// Idle engine: nothing sheds, whatever the request asks.
	req := jobRequest{Kind: "estimate", Precision: 0.001}
	if shed := srv.shedPrecisionFor(eng, &req); shed != 0 || req.Precision != 0.001 {
		t.Fatalf("idle engine shed to %v (req %v)", shed, req.Precision)
	}

	// Occupy the single worker slot so the admission pool is half full.
	occupier, err := eng.Submit(context.Background(), repro.Query{
		Kind: repro.QueryEstimate, S: 0, T: 9,
		Options: &repro.Options{Z: 200_000_000, Sampler: "mc"},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(occupier.Cancel)
	for deadline := time.Now().Add(10 * time.Second); eng.Stats().RunningJobs == 0; {
		if time.Now().After(deadline) {
			t.Fatal("occupier never started running")
		}
		time.Sleep(time.Millisecond)
	}

	// Requests already coarser than the floor pass through; non-estimate
	// kinds are never touched.
	req = jobRequest{Kind: "estimate", Precision: 0.10}
	if shed := srv.shedPrecisionFor(eng, &req); shed != 0 || req.Precision != 0.10 {
		t.Fatalf("coarse request shed to %v", shed)
	}
	req = jobRequest{Kind: "solve", Precision: 0.001}
	if shed := srv.shedPrecisionFor(eng, &req); shed != 0 {
		t.Fatalf("solve request shed to %v", shed)
	}

	// A tight estimate under load is widened to the floor end to end: the
	// queued job runs once the occupier is cancelled and its result labels
	// the degradation.
	status, raw := post(t, ts.URL+"/v2/jobs",
		`{"kind":"estimate","s":0,"t":17,"precision":0.001,"seed":7}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit under load: status %d: %s", status, raw)
	}
	var jj struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &jj); err != nil {
		t.Fatal(err)
	}
	occupier.Cancel()
	deadline := time.Now().Add(30 * time.Second)
	var job struct {
		Status string `json:"status"`
		Result *struct {
			Precision     float64 `json:"precision"`
			ShedPrecision float64 `json:"shed_precision"`
			StopReason    string  `json:"stop_reason"`
		} `json:"result"`
	}
	for {
		res, err := http.Get(ts.URL + "/v2/jobs/" + jj.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(res.Body).Decode(&job)
		res.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if job.Status == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shed job stuck in %q", job.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if job.Result == nil || job.Result.Precision != 0.05 || job.Result.ShedPrecision != 0.05 {
		t.Fatalf("shed not labelled in result: %+v", job.Result)
	}

	// The shed is visible on /metrics, JSON and Prometheus.
	res, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mm struct {
		Anytime struct {
			Estimates      uint64 `json:"estimates"`
			PrecisionSheds uint64 `json:"precision_sheds"`
		} `json:"anytime"`
	}
	err = json.NewDecoder(res.Body).Decode(&mm)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if mm.Anytime.PrecisionSheds != 1 || mm.Anytime.Estimates == 0 {
		t.Fatalf("metrics anytime block: %+v", mm.Anytime)
	}
	res, err = http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	promRaw, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(promRaw), "relmaxd_precision_sheds_total 1") {
		t.Fatalf("prometheus exposition lacks shed counter:\n%s", promRaw)
	}
}

// TestDefaultServerPrecisionStopsEarly: a server on the default flags
// (sharded sampling, -workers -1) stops a precision-0.05 estimate at the
// first 64-sample block that meets it, well before one 16-shard round of
// blocks (1024 samples).
func TestDefaultServerPrecisionStopsEarly(t *testing.T) {
	catalog, err := buildCatalog("", "", "lastfm", engineConfig{
		scale: 0.08, z: 500, sampler: "rss", seed: 1, workers: -1, cache: 256, queueDepth: 64,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(catalog, 30*time.Second)
	srv.logf = t.Logf
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)

	status, raw := post(t, ts.URL+"/v1/estimate", `{"pairs":[[0,9],[1,22],[3,40]],"precision":0.05}`)
	if status != http.StatusOK {
		t.Fatalf("estimate status %d: %s", status, raw)
	}
	var resp estimateResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.SamplesUsed) != 3 {
		t.Fatalf("samples_used missing: %s", raw)
	}
	for i, n := range resp.SamplesUsed {
		if resp.StopReasons[i] != repro.StopPrecision || n <= 0 || n >= 1024 {
			t.Errorf("pair %d: stop=%q after %d samples, want precision below 1024: %s", i, resp.StopReasons[i], n, raw)
		}
	}
}
