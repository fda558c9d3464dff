// Package serve implements dmcd's HTTP+JSON model-checking service: a
// long-running daemon answering POST /v1/check queries over a persistent
// worker pool, with process-lifetime DP caches shared across requests
// (regular.Shared, one per predicate), bounded-queue admission control,
// per-request timeouts threaded into the solve loop, and graceful drain.
// Each solve builds its own CONGEST engine buffers, as a one-shot dmc run
// does, so the daemon keeps no memory per graph shape it has served.
//
// Endpoints:
//
//	POST /v1/check   solve one problem on one graph (JSON in/out)
//	GET  /v1/stats   server counters + per-predicate cache stats
//	GET  /healthz    200 while serving, 503 once draining
//
// Every answer is bit-identical to a one-shot dmc run of the same query:
// the shared caches only save work, never change results.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/msoauto"
	"repro/internal/protocols"
	"repro/internal/regular"
)

// Options configures a Server. Zero fields take the documented defaults.
type Options struct {
	// Workers is the CONGEST worker-pool size per request
	// (0 = GOMAXPROCS; requests may override downward via "workers").
	Workers int
	// MaxConcurrent bounds solves in flight (0 = GOMAXPROCS).
	MaxConcurrent int
	// QueueDepth bounds requests waiting for a solve slot beyond
	// MaxConcurrent; excess requests get 429 (0 = 64).
	QueueDepth int
	// RequestTimeout bounds one solve; exceeding it returns 504 and cancels
	// the CONGEST run at the next round barrier (0 = 30s).
	RequestTimeout time.Duration
	// ComposeCap caps each shared cache's compose memo
	// (0 = regular.DefaultComposeCap).
	ComposeCap int
	// MaxGraphBytes bounds the request body (0 = 8 MiB).
	MaxGraphBytes int64
	// MaxFormulas bounds the number of compiled-formula caches retained;
	// least-recently-used formulas are evicted past the cap. Registered
	// problems are never evicted (0 = 64).
	MaxFormulas int
}

func (o Options) withDefaults() Options {
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.ComposeCap <= 0 {
		o.ComposeCap = regular.DefaultComposeCap
	}
	if o.MaxGraphBytes <= 0 {
		o.MaxGraphBytes = 8 << 20
	}
	if o.MaxFormulas <= 0 {
		o.MaxFormulas = 64
	}
	return o
}

// CheckRequest is the body of POST /v1/check. Exactly one of Problem and
// Formula selects the predicate.
type CheckRequest struct {
	// Graph is the instance in edge-list format (the gengraph/dmc format).
	Graph string `json:"graph"`
	// Problem names a registered problem (see core.Problems / dmc -list).
	Problem string `json:"problem,omitempty"`
	// Formula is a closed MSO formula compiled by the generic engine.
	Formula string `json:"formula,omitempty"`
	// Mode is "dist" (default: the CONGEST protocol) or "seq" (Algorithm 1).
	Mode string `json:"mode,omitempty"`
	// D is the treedepth parameter of the distributed protocol (default 3).
	D int `json:"d,omitempty"`
	// Seed is the adversarial ID-permutation seed (0 = identity).
	Seed int64 `json:"seed,omitempty"`
	// Workers overrides the server's per-request worker count (0 = server
	// default). Ignored with "parallel": false.
	Workers int `json:"workers,omitempty"`
	// Parallel selects sharded parallel execution (default true; results
	// are bit-identical either way).
	Parallel *bool `json:"parallel,omitempty"`
	// Faults is false/absent (no injection), true (a vacuous schedule), or
	// a schedule object. Only a schedule that can actually perturb the run
	// installs the injector and the reliable-delivery adapter; a vacuous
	// one keeps the sharded parallel path.
	Faults *FaultsSpec `json:"faults,omitempty"`
}

// FaultsSpec is the "faults" request field: a JSON bool or a schedule
// object ({"drop_rate":0.2,"seed":7,...}, enabled unless "enabled":false).
type FaultsSpec struct {
	Enabled       bool    `json:"enabled"`
	Seed          int64   `json:"seed,omitempty"`
	DropRate      float64 `json:"drop_rate,omitempty"`
	DupRate       float64 `json:"dup_rate,omitempty"`
	ReorderRate   float64 `json:"reorder_rate,omitempty"`
	ReorderWindow int     `json:"reorder_window,omitempty"`
	CrashRate     float64 `json:"crash_rate,omitempty"`
}

// UnmarshalJSON accepts either a bare bool or a schedule object.
func (f *FaultsSpec) UnmarshalJSON(b []byte) error {
	var on bool
	if err := json.Unmarshal(b, &on); err == nil {
		*f = FaultsSpec{Enabled: on}
		return nil
	}
	type schedule FaultsSpec // without this method
	a := schedule{Enabled: true}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&a); err != nil {
		return fmt.Errorf("faults: %w", err)
	}
	*f = FaultsSpec(a)
	return nil
}

// config converts the spec into a fault schedule.
func (f *FaultsSpec) config() faults.Config {
	return faults.Config{
		Seed: f.Seed, DropRate: f.DropRate, DupRate: f.DupRate,
		ReorderRate: f.ReorderRate, ReorderWindow: f.ReorderWindow,
		CrashRate: f.CrashRate, MinOutage: 1, MaxOutage: 4,
	}
}

// CheckResponse is the body of a successful POST /v1/check.
type CheckResponse struct {
	Problem    string `json:"problem"`
	Mode       string `json:"mode"`
	D          int    `json:"d"`
	TdExceeded bool   `json:"td_exceeded,omitempty"`
	Accepted   bool   `json:"accepted"`
	Found      bool   `json:"found,omitempty"`
	Weight     int64  `json:"weight,omitempty"`
	Count      int64  `json:"count,omitempty"`
	// Selected lists the optimal solution's vertex or edge IDs
	// (optimization problems only).
	Selected []int `json:"selected,omitempty"`
	// CONGEST accounting (distributed mode only).
	Rounds     int   `json:"rounds,omitempty"`
	Messages   int64 `json:"messages,omitempty"`
	Bits       int64 `json:"bits,omitempty"`
	MaxMsgBits int   `json:"max_msg_bits,omitempty"`
	// FaultsInjected reports whether a non-vacuous fault schedule ran
	// (with the reliable-delivery adapter).
	FaultsInjected bool `json:"faults_injected,omitempty"`
	// ElapsedMS is wall-clock solve time; excluded from bit-identity
	// comparisons.
	ElapsedMS float64 `json:"elapsed_ms"`
}

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// cacheEntry is one predicate's process-lifetime state.
type cacheEntry struct {
	prob    core.Problem
	shared  *regular.Shared
	formula bool  // formula entries are LRU-evictable, problem entries are not
	lastUse int64 // server tick of the last lookup
}

// Server is the dmcd service state. Create with New, mount Handler on an
// http.Server, call StartDrain before shutting down.
type Server struct {
	opts    Options
	start   time.Time
	sem     chan struct{}
	queued  atomic.Int64
	drainCh chan struct{}
	drainMu sync.Mutex
	drained bool

	mu     sync.Mutex
	caches map[source]*cacheEntry
	tick   int64

	nRequests  atomic.Int64
	nOK        atomic.Int64
	nClientErr atomic.Int64
	nServerErr atomic.Int64
	nRejected  atomic.Int64
	nTimeout   atomic.Int64
}

// New builds a Server.
func New(opts Options) *Server {
	o := opts.withDefaults()
	return &Server{
		opts:    o,
		start:   time.Now(),
		sem:     make(chan struct{}, o.MaxConcurrent),
		drainCh: make(chan struct{}),
		caches:  make(map[source]*cacheEntry),
	}
}

// Handler returns the HTTP mux serving all endpoints.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/check", s.handleCheck)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

// StartDrain flips the server into draining: /healthz turns 503 and new
// checks are refused, while in-flight solves finish. Idempotent.
func (s *Server) StartDrain() {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if !s.drained {
		s.drained = true
		close(s.drainCh)
	}
}

func (s *Server) draining() bool {
	select {
	case <-s.drainCh:
		return true
	default:
		return false
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func (s *Server) fail(w http.ResponseWriter, status int, format string, args ...any) {
	switch {
	case status == http.StatusTooManyRequests:
		s.nRejected.Add(1)
	case status == http.StatusGatewayTimeout:
		s.nTimeout.Add(1)
	case status >= 500:
		s.nServerErr.Add(1)
	default:
		s.nClientErr.Add(1)
	}
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// source is a request's predicate selector, the key of its shared cache.
// Only a pair that resolves to a problem ever enters the cache map, so a
// lookup never bypasses core.ProblemFor's rules.
type source struct{ problem, formula string }

// String renders the key as /v1/stats reports it.
func (k source) String() string {
	if k.formula != "" {
		return "f:" + k.formula
	}
	return "p:" + k.problem
}

// cacheFor returns (creating on demand) the shared cache for the request's
// predicate.
func (s *Server) cacheFor(req *CheckRequest) (*cacheEntry, error) {
	key := source{req.Problem, req.Formula}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tick++
	if e, ok := s.caches[key]; ok {
		e.lastUse = s.tick
		return e, nil
	}
	prob, err := core.ProblemFor(req.Problem, req.Formula)
	if err != nil {
		return nil, err
	}
	pred, err := prob.Build()
	if err != nil {
		return nil, err
	}
	e := &cacheEntry{prob: prob, shared: regular.NewShared(pred), formula: req.Formula != "", lastUse: s.tick}
	e.shared.SetComposeCap(s.opts.ComposeCap)
	s.caches[key] = e
	s.evictFormulasLocked()
	return e, nil
}

// evictFormulasLocked drops least-recently-used formula entries past the cap.
//
//dmclint:requires-lock mu
func (s *Server) evictFormulasLocked() {
	for {
		count, oldestKey, oldest := 0, source{}, int64(0)
		for k, e := range s.caches {
			if !e.formula {
				continue
			}
			count++
			if count == 1 || e.lastUse < oldest {
				oldestKey, oldest = k, e.lastUse
			}
		}
		if count <= s.opts.MaxFormulas {
			return
		}
		delete(s.caches, oldestKey)
	}
}

func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	s.nRequests.Add(1)
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if s.draining() {
		s.fail(w, http.StatusServiceUnavailable, "server is draining")
		return
	}

	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxGraphBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var req CheckRequest
	if err := dec.Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}

	// Admission: the queue holds at most MaxConcurrent running plus
	// QueueDepth waiting requests; the rest are rejected immediately.
	if s.queued.Add(1) > int64(s.opts.MaxConcurrent+s.opts.QueueDepth) {
		s.queued.Add(-1)
		s.fail(w, http.StatusTooManyRequests, "queue full (%d in flight or waiting)", s.opts.MaxConcurrent+s.opts.QueueDepth)
		return
	}
	defer s.queued.Add(-1)

	ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
	defer cancel()
	select {
	case s.sem <- struct{}{}:
		//lint:ignore dmclint/ctxflow the slot was just acquired on this path; releasing a held slot never blocks
		defer func() { <-s.sem }()
	case <-s.drainCh:
		s.fail(w, http.StatusServiceUnavailable, "server is draining")
		return
	case <-ctx.Done():
		s.fail(w, http.StatusGatewayTimeout, "timed out waiting for a solve slot")
		return
	}

	resp, status, err := s.solve(ctx, &req)
	if err != nil {
		s.fail(w, status, "%v", err)
		return
	}
	s.nOK.Add(1)
	writeJSON(w, http.StatusOK, resp)
}

// solve decodes one check request into a core.Request and runs it.
func (s *Server) solve(ctx context.Context, req *CheckRequest) (*CheckResponse, int, error) {
	entry, err := s.cacheFor(req)
	if err != nil {
		return nil, http.StatusBadRequest, jsonError(err)
	}
	if strings.TrimSpace(req.Graph) == "" {
		return nil, http.StatusBadRequest, errors.New("need \"graph\" (edge-list text)")
	}
	g, err := graph.ReadEdgeList(strings.NewReader(req.Graph))
	if err != nil {
		// graph package errors already carry the "graph:" prefix.
		return nil, http.StatusBadRequest, err
	}
	mode := req.Mode
	if mode == "" {
		mode = "dist"
	}
	if mode != "dist" && mode != "seq" {
		return nil, http.StatusBadRequest, fmt.Errorf("mode: want \"dist\" or \"seq\", got %q", req.Mode)
	}
	d := req.D
	if d == 0 {
		d = 3
	}
	// A distributed run defaults to the worker pool at the server's size;
	// a sequential run has no pool.
	parallel := mode == "dist"
	if req.Parallel != nil {
		parallel = *req.Parallel
	}
	workers := req.Workers
	if workers == 0 && parallel {
		workers = s.opts.Workers
	}
	creq := core.Request{
		Graph: g, Problem: entry.prob, Sequential: mode == "seq", D: d, Cache: entry.shared,
		Options: congest.Options{
			IDSeed:   req.Seed,
			Parallel: parallel,
			Workers:  workers,
			Context:  ctx,
		},
	}
	if req.Faults != nil && req.Faults.Enabled {
		creq.Faults = req.Faults.config()
	}
	if err := ctx.Err(); err != nil {
		return nil, http.StatusGatewayTimeout, fmt.Errorf("canceled before solve: %w", err)
	}

	startSolve := time.Now()
	sol, err := core.Solve(creq)
	if err != nil {
		switch {
		case errors.Is(err, congest.ErrCanceled) || errors.Is(err, context.DeadlineExceeded):
			return nil, http.StatusGatewayTimeout, fmt.Errorf("solve timed out after %v", s.opts.RequestTimeout)
		case errors.Is(err, protocols.ErrUnrecoverable):
			return nil, http.StatusUnprocessableEntity, fmt.Errorf("faults exceeded the retry budget: %v", err)
		case errors.Is(err, regular.ErrOverflow) || errors.Is(err, msoauto.ErrLimit):
			// The instance is well-formed but past what the predicate can
			// evaluate; both modes fail the same way.
			return nil, http.StatusUnprocessableEntity, err
		case errors.As(err, new(*core.FieldError)) || errors.Is(err, protocols.ErrProtocol):
			return nil, http.StatusBadRequest, jsonError(err)
		default:
			return nil, http.StatusInternalServerError, err
		}
	}
	resp := &CheckResponse{
		Problem: entry.prob.Name, Mode: mode, D: d, FaultsInjected: creq.Faulted(),
		ElapsedMS:  float64(time.Since(startSolve).Microseconds()) / 1000,
		TdExceeded: sol.TdExceeded, Accepted: sol.Accepted, Found: sol.Found, Weight: sol.Weight, Count: sol.Count,
	}
	if sol.Selected != nil {
		ids := []int{}
		sol.Selected.ForEach(func(v int) { ids = append(ids, v) })
		resp.Selected = ids
	}
	if mode == "dist" {
		resp.Rounds = sol.Stats.Rounds
		resp.Messages = sol.Stats.Messages
		resp.Bits = sol.Stats.Bits
		resp.MaxMsgBits = sol.Stats.MaxMsgBits
	}
	return resp, http.StatusOK, nil
}

// jsonError respells a rejected request with JSON key names.
func jsonError(err error) error {
	var fe *core.FieldError
	if errors.As(err, &fe) {
		return errors.New(fe.Spell(strconv.Quote))
	}
	return err
}

// CacheInfo is one predicate's shared-cache stats in StatsResponse.
type CacheInfo struct {
	Key string `json:"key"` // "p:<problem>" or "f:<formula>"
	regular.CacheStats
	ComposeHitRate float64 `json:"compose_hit_rate"`
	LookupHitRate  float64 `json:"lookup_hit_rate"`
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	UptimeMS     float64     `json:"uptime_ms"`
	Draining     bool        `json:"draining"`
	Requests     int64       `json:"requests"`
	Succeeded    int64       `json:"succeeded"`
	ClientErrors int64       `json:"client_errors"`
	ServerErrors int64       `json:"server_errors"`
	Rejected     int64       `json:"rejected"` // 429s from admission control
	Timeouts     int64       `json:"timeouts"` // 504s
	InFlight     int64       `json:"in_flight"`
	Queued       int64       `json:"queued"`
	Caches       []CacheInfo `json:"caches"`
}

// Stats snapshots the server counters and every shared cache.
func (s *Server) Stats() StatsResponse {
	inFlight := int64(len(s.sem))
	queued := s.queued.Load() - inFlight
	if queued < 0 {
		queued = 0
	}
	resp := StatsResponse{
		UptimeMS:     float64(time.Since(s.start).Microseconds()) / 1000,
		Draining:     s.draining(),
		Requests:     s.nRequests.Load(),
		Succeeded:    s.nOK.Load(),
		ClientErrors: s.nClientErr.Load(),
		ServerErrors: s.nServerErr.Load(),
		Rejected:     s.nRejected.Load(),
		Timeouts:     s.nTimeout.Load(),
		InFlight:     inFlight,
		Queued:       queued,
	}
	s.mu.Lock()
	keys := make([]string, 0, len(s.caches))
	entries := make(map[string]*cacheEntry, len(s.caches))
	for k, e := range s.caches {
		keys = append(keys, k.String())
		entries[k.String()] = e
	}
	s.mu.Unlock()
	sort.Strings(keys)
	for _, k := range keys {
		st := entries[k].shared.Stats()
		resp.Caches = append(resp.Caches, CacheInfo{
			Key: k, CacheStats: st,
			ComposeHitRate: st.ComposeHitRate(),
			LookupHitRate:  st.LookupHitRate(),
		})
	}
	return resp
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ok\n"))
}
