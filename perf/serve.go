package perf

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/regular"
	"repro/internal/serve"
)

// serveEntry is one query type of serve-mix's fixed catalog.
type serveEntry struct {
	problem  string // registered problem, or "" for formula
	formula  string // closed MSO formula compiled by msoauto
	mode     string // "dist" or "seq"
	n        int    // vertices; quickN under Options.Quick
	quickN   int
	weighted bool
}

// triangleFree is serve-mix's generic-engine formula.
const triangleFree = "~ exists x:V,y:V,z:V . adj(x,y) & adj(y,z) & adj(z,x)"

var serveCatalog = []serveEntry{
	{problem: "acyclic", mode: "dist", n: 512, quickN: 24},
	{problem: "3-colorable", mode: "dist", n: 256, quickN: 16},
	{problem: "min-vertex-cover", mode: "dist", n: 256, quickN: 16, weighted: true},
	{formula: triangleFree, mode: "dist", n: 64, quickN: 12},
	{problem: "min-vertex-cover", mode: "seq", n: 1024, quickN: 32, weighted: true},
	{problem: "count-perfect-matchings", mode: "seq", n: 1024, quickN: 32},
}

const (
	// serveInstances is the number of seeded graphs per catalog entry, so
	// one graph's cost does not decide the mix.
	serveInstances = 8
	// serveConns bounds the HTTP connections and the server's concurrent
	// solves.
	serveConns = 2
	// serveRateQPS is phase A's open-loop arrival rate: about half of
	// phase B's closed-loop capacity, whose medians over 10 runs measured
	// 113-151 requests/s on a 2-CPU machine. Over 16 s of a 20 s window it
	// sends 960 requests, so p99 has about 10 samples beyond it.
	serveRateQPS = 60
	// serveOpenShare is the share of the window spent in phase A (open
	// loop); phase B (closed loop) gets the rest.
	serveOpenShare = 0.8
)

// query is one request of the mix with the one-shot answer it must match.
type query struct {
	job  *job
	text []byte // the graph's edge-list text
	body []byte // the /v1/check request
	want *core.Solution
}

// serveQueries generates the catalog's queries and their one-shot answers.
// The queries cycle through the catalog entries, so the dearest entries do
// not arrive back to back and queue behind each other.
func (r *run) serveQueries() ([]*query, error) {
	probs := make([]core.Problem, len(serveCatalog))
	for i, e := range serveCatalog {
		var err error
		if probs[i], err = serveProblem(e); err != nil {
			return nil, err
		}
	}
	var qs []*query
	for k := 0; k < serveInstances; k++ {
		for i, e := range serveCatalog {
			n := e.n
			if r.opt.Quick {
				n = e.quickN
			}
			prob := probs[i]
			text, g, _, err := boundedTreedepthText(n, e.weighted, r.opt.Seed*1000+int64(i*serveInstances+k))
			if err != nil {
				return nil, err
			}
			body, err := json.Marshal(serve.CheckRequest{
				Graph: string(text), Problem: e.problem, Formula: e.formula, Mode: e.mode, D: treedepthBound,
			})
			if err != nil {
				return nil, err
			}
			q := &query{text: text, body: body, job: &job{name: prob.Name + "/" + e.mode, g: g, prob: prob, mode: modeDist}}
			if e.mode == "seq" {
				q.job.mode = modeSeq
			}
			if q.want, err = q.job.solve(q.job.options(true, r.workers)); err != nil {
				return nil, fmt.Errorf("oracle %s: %w", q.job.name, err)
			}
			if r.opt.Corrupt {
				q.want.Accepted = !q.want.Accepted
			}
			qs = append(qs, q)
		}
	}
	return qs, nil
}

// serveProblem resolves a catalog entry to a problem; a formula entry is
// compiled once, as the daemon does.
func serveProblem(e serveEntry) (core.Problem, error) {
	if e.formula == "" {
		return core.Lookup(e.problem)
	}
	pred, err := core.CompileClosedFormula(e.formula)
	if err != nil {
		return core.Problem{}, err
	}
	return core.Problem{
		Name: "formula", Kind: core.KindDecision,
		Build: func() (regular.Predicate, error) { return pred, nil },
	}, nil
}

// matches compares a daemon answer with the one-shot solve, CONGEST
// counters included.
func (q *query) matches(resp *serve.CheckResponse) bool {
	w := q.want
	if resp.TdExceeded != w.TdExceeded || resp.Accepted != w.Accepted || resp.Found != w.Found ||
		resp.Weight != w.Weight || resp.Count != w.Count {
		return false
	}
	var sel []int
	if w.Selected != nil {
		sel = w.Selected.Indices()
	}
	if len(sel) != len(resp.Selected) {
		return false
	}
	for i := range sel {
		if sel[i] != resp.Selected[i] {
			return false
		}
	}
	if q.job.mode == modeSeq {
		return true
	}
	return resp.Rounds == w.Stats.Rounds && resp.Messages == w.Stats.Messages &&
		resp.Bits == w.Stats.Bits && resp.MaxMsgBits == w.Stats.MaxMsgBits
}

// sample is one request's timeline.
type sample struct {
	due, sent, done time.Time
	status          int
	solveMS         float64 // the response's elapsed_ms
}

// daemon is one in-process dmcd behind a loopback HTTP server, and the
// client side that posts to it and checks the answers into a run.
type daemon struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client

	r  *run
	mu sync.Mutex // guards r's tally against the client goroutines
}

func startDaemon(r *run) *daemon {
	srv := serve.New(serve.Options{MaxConcurrent: serveConns, Workers: r.workers})
	ts := httptest.NewServer(srv.Handler())
	tr := &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns}
	return &daemon{srv: srv, ts: ts, client: &http.Client{Transport: tr}, r: r}
}

func (d *daemon) close() {
	d.client.CloseIdleConnections()
	d.ts.Close()
}

// post sends one query and checks the answer. Refusals (429, 504) count as
// failed, anything else unexpected as wrong.
func (d *daemon) post(q *query, s *sample) {
	s.sent = time.Now()
	resp, err := d.client.Post(d.ts.URL+"/v1/check", "application/json", bytes.NewReader(q.body))
	var out serve.CheckResponse
	if err == nil {
		s.status = resp.StatusCode
		if resp.StatusCode == http.StatusOK {
			err = json.NewDecoder(resp.Body).Decode(&out)
		}
		resp.Body.Close()
	}
	s.done = time.Now()
	s.solveMS = out.ElapsedMS

	d.mu.Lock()
	defer d.mu.Unlock()
	r := d.r
	switch {
	case err != nil:
		r.check(false, "%s: request: %v", q.job.name, err)
	case s.status == http.StatusTooManyRequests || s.status == http.StatusGatewayTimeout:
		r.refuse("%s: HTTP %d", q.job.name, s.status)
	case s.status != http.StatusOK:
		r.check(false, "%s: HTTP %d", q.job.name, s.status)
	default:
		r.check(q.matches(&out), "%s: response differs from the one-shot solve", q.job.name)
	}
}

// serveMix runs the daemon workload: setups cold starts, phase A open loop
// at serveRateQPS, phase B closed loop with serveConns clients.
func serveMix(r *run) error {
	qs, err := r.serveQueries()
	if err != nil {
		return fmt.Errorf("inputs: %w", err)
	}
	resetPeakRSS()
	var d *daemon
	var setup []float64
	for i := 0; i < setups; i++ {
		if d != nil {
			d.close()
		}
		start := time.Now()
		d = startDaemon(r)
		for _, q := range qs {
			d.post(q, &sample{})
		}
		setup = append(setup, time.Since(start).Seconds())
	}
	defer d.close()

	statsBefore := d.srv.Stats()
	before := takeRuntimeSnapshot()
	openWindow := time.Duration(float64(r.opt.Window) * serveOpenShare)
	open := d.openLoop(qs, openWindow)
	qps, closed := d.closedLoop(qs, r.opt.Window-openWindow)
	after := takeRuntimeSnapshot()
	statsAfter := d.srv.Stats()

	var latency, solve, overhead, late []float64
	for _, s := range open {
		latency = append(latency, millis(s.done.Sub(s.due)))
		late = append(late, millis(s.sent.Sub(s.due)))
		if s.status == http.StatusOK {
			solve = append(solve, s.solveMS)
			overhead = append(overhead, millis(s.done.Sub(s.sent))-s.solveMS)
		}
	}
	r.set("setup_s", quantile(setup, 0.5))
	r.set("latency_ms_p50", quantile(latency, 0.5))
	r.set("latency_ms_p99", quantile(latency, 0.99))
	r.set("throughput_qps", qps)
	r.set("peak_rss_mb", peakRSSMB())
	if !r.opt.Trace {
		return nil
	}

	r.set("serve.solve_ms_p50", quantile(solve, 0.5))
	r.set("serve.overhead_ms_p50", quantile(overhead, 0.5))
	r.set("serve.overhead_ms_p99", quantile(overhead, 0.99))
	r.set("serve.generator_late_ms_p99", quantile(late, 0.99))
	r.set("serve.rejected", float64(statsAfter.Rejected-statsBefore.Rejected))
	r.set("serve.timeouts", float64(statsAfter.Timeouts-statsBefore.Timeouts))
	r.setRuntimeDeltas(before, after, len(open)+closed)

	var compile []float64
	for i := 0; i < setups; i++ {
		t := time.Now()
		if _, err := core.CompileClosedFormula(triangleFree); err != nil {
			return fmt.Errorf("compile: %w", err)
		}
		compile = append(compile, time.Since(t).Seconds())
	}
	r.set("msoauto.compile_s", quantile(compile, 0.5))

	// The traced pass runs one one-shot solve per query (private caches, as
	// dmc would); its layer times are sums over the catalog.
	var ingest time.Duration
	jobs := make([]*job, len(qs))
	for i, q := range qs {
		t := time.Now()
		g, err := graph.ReadEdgeList(bytes.NewReader(q.text))
		ingest += time.Since(t)
		if err != nil {
			return fmt.Errorf("ingest: %w", err)
		}
		j := *q.job
		j.g = g
		jobs[i] = &j
	}
	r.set("graph.ingest_s", ingest.Seconds())
	if err := r.tracedPass(jobs); err != nil {
		return err
	}
	// The daemon's shared caches, not the traced one-shot solves, are what
	// the measured phases used.
	r.setCache(cacheDelta(statsBefore, statsAfter))
	return nil
}

// openLoop sends query i%len(qs) at start+i/serveRateQPS for the window,
// over serveConns connections, and returns every request's timeline.
// Latency counts from the due time, so a stall also delays later requests.
func (d *daemon) openLoop(qs []*query, window time.Duration) []sample {
	total := int(window.Seconds() * serveRateQPS)
	if total < 1 {
		total = 1
	}
	samples := make([]sample, total)
	next := make(chan int, total) // sized to the number of sends: never blocks
	for i := 0; i < total; i++ {
		next <- i
	}
	close(next)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				s := &samples[i]
				s.due = start.Add(time.Duration(float64(i) / serveRateQPS * float64(time.Second)))
				time.Sleep(time.Until(s.due))
				d.post(qs[i%len(qs)], s)
			}
		}()
	}
	wg.Wait()
	return samples
}

// closedLoop runs serveConns clients that each send their next query as
// soon as the previous answer arrives, until the window ends. It returns the
// completed requests per second and their number.
func (d *daemon) closedLoop(qs []*query, window time.Duration) (float64, int) {
	counts := make([]int, serveConns)
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; time.Now().Before(deadline); i += serveConns {
				d.post(qs[i%len(qs)], &sample{})
				counts[c]++
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	total := 0
	for _, n := range counts {
		total += n
	}
	return float64(total) / elapsed.Seconds(), total
}

// cacheDelta sums the daemon's shared-cache counters between two /v1/stats
// snapshots; classes is the live total at the end.
func cacheDelta(before, after serve.StatsResponse) regular.CacheStats {
	var d regular.CacheStats
	for _, c := range after.Caches {
		d.ComposeHits += c.ComposeHits
		d.ComposeMisses += c.ComposeMisses
		d.DecodeMisses += c.DecodeMisses
		d.Classes += c.Classes
	}
	for _, c := range before.Caches {
		d.ComposeHits -= c.ComposeHits
		d.ComposeMisses -= c.ComposeMisses
		d.DecodeMisses -= c.DecodeMisses
	}
	return d
}
