package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"time"

	"repro"
)

// server routes HTTP/JSON queries through a repro.Catalog: one Engine per
// dataset, with datasets created, mutated and closed at runtime via the
// /v2/datasets family. Construction state (catalog handle, limits) is
// immutable afterwards; the mutable serving state — the catalog's
// registry, the job store and the metrics collector — is internally
// locked, so the handler is safe for any number of concurrent requests.
//
// Every query, including the synchronous /v1 endpoints, runs as a job on
// the engine's bounded worker queue: /v1 submits and waits inline, /v2
// returns the job ID immediately. That gives one global concurrency bound
// and one load-shedding point (HTTP 503 when the queue is full).
type server struct {
	catalog *repro.Catalog
	// defaultScale and defaultSeed parameterize built-in dataset creation
	// when a POST /v2/datasets request leaves them zero (flags in main.go).
	defaultScale float64
	defaultSeed  int64
	// timeout bounds every request; per-request "timeout_ms" may shorten
	// but never extend it. For /v2 jobs it bounds the job's runtime.
	timeout time.Duration
	// limits are the serving ceilings (flags in main.go).
	limits limits
	// shedPrec, when positive, arms precision load shedding (-shed-precision):
	// once an engine's admission pool is at least half full, precision-mode
	// estimates are served at this coarser precision instead of their
	// requested one — degrading answers before the queue degrades to 503s.
	shedPrec float64
	jobs     *jobStore
	metrics  *metrics
	logf     func(format string, args ...any)
	// role is "primary" (default) or "replica"; the router role never
	// constructs a server. A primary with -data-dir registers a replication
	// tap per dataset in taps and serves the feed endpoint; a replica is
	// read-only and keeps its follower set in replicas.
	role     string
	taps     *tapRegistry
	replicas *replicaManager
}

// limits are the per-request parameter ceilings. The body cap bounds
// payload size; the others bound computational cost, so one client cannot
// monopolize the worker pool for the full request timeout with a single
// oversized query. All of them are server flags (-max-z, -max-k, -max-rl,
// -max-pairs, -max-body) with these defaults.
type limits struct {
	// MaxZ caps samples per estimate.
	MaxZ int
	// MaxK caps the edge budget.
	MaxK int
	// MaxRL caps the elimination width r and the path count l.
	MaxRL int
	// MaxPairs caps the estimate batch size.
	MaxPairs int
	// MaxMutations caps a /v2 mutation batch.
	MaxMutations int
	// MaxDatasets caps how many datasets the catalog serves at once: every
	// dataset pins a full engine (graph clone, CSR, cache),
	// so unbounded POST /v2/datasets would be an OOM lever. Enforced by
	// the catalog itself (Catalog.SetMaxDatasets, applied in newServer),
	// which counts in-flight builds too — concurrent creates cannot
	// overshoot it.
	MaxDatasets int
	// MaxBodyBytes caps request bodies: a solve request is a handful of
	// scalars and an estimate batch of even 100k pairs fits comfortably,
	// so anything larger is abuse, not traffic. Dataset uploads (inline
	// edge lists) live under the same cap.
	MaxBodyBytes int64
}

func defaultLimits() limits {
	return limits{
		MaxZ:         1_000_000,
		MaxK:         1_000,
		MaxRL:        100_000,
		MaxPairs:     10_000,
		MaxMutations: 10_000,
		MaxDatasets:  64,
		MaxBodyBytes: 4 << 20,
	}
}

func newServer(catalog *repro.Catalog, timeout time.Duration) *server {
	catalog.SetMaxDatasets(defaultLimits().MaxDatasets)
	return &server{
		catalog:      catalog,
		defaultScale: 0.08,
		defaultSeed:  1,
		timeout:      timeout,
		limits:       defaultLimits(),
		jobs:         newJobStore(retainedJobs),
		metrics:      newMetrics(),
		logf:         log.Printf,
		role:         rolePrimary,
	}
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("POST /v1/solve", s.instrument("v1.solve", true, s.handleSolve))
	mux.HandleFunc("POST /v1/estimate", s.instrument("v1.estimate", true, s.handleEstimate))
	// v2.submit returns in microseconds (the work happens in the job), so
	// its durations would only dilute the query-latency quantiles.
	mux.HandleFunc("POST /v2/jobs", s.instrument("v2.submit", false, s.handleJobSubmit))
	mux.HandleFunc("GET /v2/jobs/{id}", s.instrument("v2.status", false, s.handleJobGet))
	mux.HandleFunc("DELETE /v2/jobs/{id}", s.instrument("v2.cancel", false, s.handleJobCancel))
	mux.HandleFunc("GET /v2/jobs/{id}/events", s.instrument("v2.events", false, s.handleJobEvents))
	mux.HandleFunc("GET /v2/datasets", s.instrument("v2.datasets.list", false, s.handleDatasetList))
	// Writes — dataset lifecycle and mutations — exist only on the primary;
	// a replica's state is the primary's, streamed, so local writes would
	// fork it (and the next batch would be detected as a gap).
	mux.HandleFunc("POST /v2/datasets", s.instrument("v2.datasets.create", false, s.gateWrite(s.handleDatasetCreate)))
	mux.HandleFunc("DELETE /v2/datasets/{name}", s.instrument("v2.datasets.close", false, s.gateWrite(s.handleDatasetClose)))
	mux.HandleFunc("POST /v2/datasets/{name}/mutations", s.instrument("v2.datasets.mutate", false, s.gateWrite(s.handleDatasetMutate)))
	mux.HandleFunc("GET /v2/replication/feed/{name}", s.handleFeed)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// gateWrite rejects mutating endpoints on read replicas with 403.
func (s *server) gateWrite(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.role == roleReplica {
			writeJSON(w, http.StatusForbidden,
				errorResponse{Error: "replica is read-only: route writes to the primary"})
			return
		}
		h(w, r)
	}
}

type edgeJSON struct {
	U int32   `json:"u"`
	V int32   `json:"v"`
	P float64 `json:"p"`
}

// solveResponse mirrors repro.Solution. The timing block is the only
// non-deterministic part of the payload; everything else is a pure
// function of the request for a fixed dataset and seed.
type solveResponse struct {
	// Epoch is the graph epoch the query ran on (also the X-Repro-Epoch
	// response header): clients behind a replica-routing tier use it to
	// detect and bound staleness.
	Epoch      uint64     `json:"epoch"`
	Method     string     `json:"method"`
	Edges      []edgeJSON `json:"edges"`
	Base       float64    `json:"base"`
	After      float64    `json:"after"`
	Gain       float64    `json:"gain"`
	Candidates int        `json:"candidates"`
	Paths      int        `json:"paths"`
	Timing     struct {
		ElimMS   float64 `json:"elim_ms"`
		SelectMS float64 `json:"select_ms"`
	} `json:"timing"`
}

func solveResponseOf(sol repro.Solution) solveResponse {
	resp := solveResponse{
		Method:     string(sol.Method),
		Edges:      toEdgeJSON(sol.Edges),
		Base:       sol.Base,
		After:      sol.After,
		Gain:       sol.Gain,
		Candidates: sol.CandidateCount,
		Paths:      sol.PathCount,
	}
	resp.Timing.ElimMS = float64(sol.ElimTime.Microseconds()) / 1000
	resp.Timing.SelectMS = float64(sol.SelectTime.Microseconds()) / 1000
	return resp
}

type estimateResponse struct {
	Epoch         uint64    `json:"epoch"`
	Reliabilities []float64 `json:"reliabilities"`
	// The anytime block, present only for precision-mode requests: per-pair
	// confidence intervals parallel to Reliabilities, the samples each pair
	// actually drew, and why each stopped ("precision", "budget",
	// "deadline"). Precision echoes the precision the answer satisfies;
	// ShedPrecision is set instead of silence when overload shedding
	// coarsened it below what the client asked (see server.shedPrecisionFor).
	Lo            []float64 `json:"lo,omitempty"`
	Hi            []float64 `json:"hi,omitempty"`
	SamplesUsed   []int     `json:"samples_used,omitempty"`
	StopReasons   []string  `json:"stop_reasons,omitempty"`
	Precision     float64   `json:"precision,omitempty"`
	ShedPrecision float64   `json:"shed_precision,omitempty"`
}

// estimateResponseOf renders an estimate-many result, folding in the
// per-pair anytime intervals when the query ran in precision mode.
func estimateResponseOf(res repro.Result, epoch uint64, shed float64) estimateResponse {
	resp := estimateResponse{Epoch: epoch, Reliabilities: res.Reliabilities}
	if len(res.AnytimeMany) == 0 {
		return resp
	}
	resp.Lo = make([]float64, len(res.AnytimeMany))
	resp.Hi = make([]float64, len(res.AnytimeMany))
	resp.SamplesUsed = make([]int, len(res.AnytimeMany))
	resp.StopReasons = make([]string, len(res.AnytimeMany))
	for i, a := range res.AnytimeMany {
		resp.Lo[i], resp.Hi[i] = a.Lo, a.Hi
		resp.SamplesUsed[i] = a.SamplesUsed
		resp.StopReasons[i] = a.StopReason
		resp.Precision = a.Precision
	}
	resp.ShedPrecision = shed
	return resp
}

type errorResponse struct {
	Error string `json:"error"`
}

// engineFor resolves a dataset name through the catalog. An empty name is
// accepted only while exactly one dataset is being served — the
// single-dataset convenience the CLI flags set up — and resolves to it.
func (s *server) engineFor(name string) (*repro.Engine, string, error) {
	if name == "" {
		names := s.catalog.Names()
		if len(names) != 1 {
			return nil, "", fmt.Errorf("request must name a dataset (serving: %v): %w", names, repro.ErrUnknownDataset)
		}
		name = names[0]
	}
	eng, err := s.catalog.Open(name)
	if err != nil {
		return nil, "", fmt.Errorf("unknown dataset %q (serving: %v): %w", name, s.names(), repro.ErrUnknownDataset)
	}
	return eng, name, nil
}

func (s *server) names() []string { return s.catalog.Names() }

// requestContext derives the per-request context: the client disconnect
// context, bounded by the server timeout and any shorter per-request one.
func (s *server) requestContext(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	timeout := s.effectiveTimeout(timeoutMS)
	if timeout <= 0 {
		return context.WithCancel(r.Context())
	}
	return context.WithTimeout(r.Context(), timeout)
}

// effectiveTimeout combines the server default with a per-request
// override, which may shorten but never extend it.
func (s *server) effectiveTimeout(timeoutMS int64) time.Duration {
	timeout := s.timeout
	if reqTO := time.Duration(timeoutMS) * time.Millisecond; reqTO > 0 && (timeout <= 0 || reqTO < timeout) {
		timeout = reqTO
	}
	return timeout
}

func (s *server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	type graphInfo struct {
		N        int    `json:"n"`
		M        int    `json:"m"`
		Directed bool   `json:"directed"`
		Epoch    uint64 `json:"epoch"`
	}
	list := s.catalog.List()
	info := make(map[string]graphInfo, len(list))
	for _, d := range list {
		info[d.Name] = graphInfo{N: d.Nodes, M: d.Edges, Directed: d.Directed, Epoch: d.Epoch}
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "datasets": info})
}

func (s *server) decode(w http.ResponseWriter, r *http.Request, into any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.limits.MaxBodyBytes)).Decode(into); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorResponse{Error: fmt.Sprintf("request body exceeds the %d-byte cap", s.limits.MaxBodyBytes)})
			return false
		}
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad JSON: " + err.Error()})
		return false
	}
	return true
}

// handleSolve is POST /v1/solve: a kind="solve" query served
// synchronously. The body shares jobRequest's field set (zero-valued
// solver parameters inherit the engine defaults, so `{"s":0,"t":5}` is a
// valid minimal query), so /v1 and /v2 can never drift in validation or
// defaulting.
func (s *server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req jobRequest
	if !s.decode(w, r, &req) {
		return
	}
	req.Kind = string(repro.QuerySolve)
	eng, dataset, err := s.engineFor(req.Dataset)
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: err.Error()})
		return
	}
	if err := req.checkLimits(s.limits); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	s.metrics.recordDataset(dataset)
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	res, epoch, err := s.runJob(ctx, eng, req.query())
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	resp := solveResponseOf(res.Solution)
	resp.Epoch = epoch
	setEpochHeader(w, epoch)
	writeJSON(w, http.StatusOK, resp)
}

// handleEstimate is POST /v1/estimate: a kind="estimate-many" query served
// synchronously; see handleSolve for the shared body semantics.
func (s *server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	var req jobRequest
	if !s.decode(w, r, &req) {
		return
	}
	req.Kind = string(repro.QueryEstimateMany)
	eng, dataset, err := s.engineFor(req.Dataset)
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: err.Error()})
		return
	}
	if len(req.Pairs) == 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "pairs must be non-empty"})
		return
	}
	if err := req.checkLimits(s.limits); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	s.metrics.recordDataset(dataset)
	shed := s.shedPrecisionFor(eng, &req)
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	res, epoch, err := s.runJob(ctx, eng, req.query())
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	setEpochHeader(w, epoch)
	writeJSON(w, http.StatusOK, estimateResponseOf(res, epoch, shed))
}

// shedLoadFactor is the admission-pool fill fraction beyond which precision
// shedding (-shed-precision) kicks in.
const shedLoadFactor = 0.5

// shedPrecisionFor widens a precision-mode estimate under load. With
// -shed-precision set, once the engine's admission pool (running plus
// queued jobs over its total capacity) is at least half full, any estimate
// asking for a precision tighter than the shed floor is served at the floor
// instead: a wider interval costs fewer samples, so the server degrades
// answer quality before it has to degrade availability (503 only once even
// shed jobs overflow the queue). Returns the precision actually served when
// shedding rewrote the request, else 0; the caller records it in the stored
// job and the response so degraded answers are always labelled.
func (s *server) shedPrecisionFor(eng *repro.Engine, req *jobRequest) float64 {
	if s.shedPrec <= 0 || req.Precision <= 0 || req.Precision >= s.shedPrec {
		return 0
	}
	if k := repro.QueryKind(req.Kind); k != repro.QueryEstimate && k != repro.QueryEstimateMany {
		return 0
	}
	st := eng.Stats()
	capacity := st.MaxConcurrent + st.QueueDepth
	if capacity <= 0 || float64(st.QueuedJobs+st.RunningJobs) < shedLoadFactor*float64(capacity) {
		return 0
	}
	req.Precision = s.shedPrec
	s.metrics.recordPrecisionShed()
	return s.shedPrec
}

// runJob is the synchronous /v1 shim over the job runner: submit, then
// Job.Wait under the request context (which cancels the job on client
// disconnect and keeps a request-deadline expiry mapped to 504). The
// returned epoch is the one the job pinned at submit — what the response
// advertises as the serving epoch.
func (s *server) runJob(ctx context.Context, eng *repro.Engine, q repro.Query) (repro.Result, uint64, error) {
	job, err := eng.Submit(ctx, q)
	if err != nil {
		return repro.Result{}, 0, err
	}
	res, err := job.Wait(ctx)
	return res, job.Epoch(), err
}

// setEpochHeader advertises the serving epoch on a query response; clients
// behind the router compare it across backends to bound replica staleness.
func setEpochHeader(w http.ResponseWriter, epoch uint64) {
	w.Header().Set("X-Repro-Epoch", strconv.FormatUint(epoch, 10))
}

// writeError maps the library's typed error taxonomy to HTTP statuses:
// invalid input 400, unknown datasets (and engines closed mid-request)
// 404, duplicate datasets 409, queue overload 503, timeouts 504,
// client-abandoned requests are logged only, everything else 500.
func (s *server) writeError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, repro.ErrOverloaded):
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
	case errors.Is(err, context.DeadlineExceeded):
		writeJSON(w, http.StatusGatewayTimeout, errorResponse{Error: err.Error()})
	case errors.Is(err, context.Canceled):
		// The client went away; nobody is reading the response.
		s.logf("relmaxd: %s %s abandoned: %v", r.Method, r.URL.Path, err)
	case errors.Is(err, repro.ErrUnknownDataset),
		errors.Is(err, repro.ErrClosed):
		writeJSON(w, http.StatusNotFound, errorResponse{Error: err.Error()})
	case errors.Is(err, repro.ErrDatasetExists):
		writeJSON(w, http.StatusConflict, errorResponse{Error: err.Error()})
	case errors.Is(err, repro.ErrCatalogFull):
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: err.Error()})
	case errors.Is(err, repro.ErrBadQuery),
		errors.Is(err, repro.ErrBadMutation),
		errors.Is(err, repro.ErrUnknownMethod),
		errors.Is(err, repro.ErrUnknownSampler),
		errors.Is(err, repro.ErrBudget),
		errors.Is(err, repro.ErrNoPath):
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
	default:
		s.logf("relmaxd: %s %s failed: %v", r.Method, r.URL.Path, err)
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
	}
}

func toEdgeJSON(edges []repro.Edge) []edgeJSON {
	out := make([]edgeJSON, len(edges))
	for i, e := range edges {
		out[i] = edgeJSON{U: e.U, V: e.V, P: e.P}
	}
	return out
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
